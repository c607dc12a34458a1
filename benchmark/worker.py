"""The timed process of one benchmark run.

    python3 worker.py SRC_DIR                                  # set-up probe
    python3 worker.py SRC_DIR MANIFEST SECONDS TRACE [SPANS_PATH]

Times `import dirhom.cli` before importing anything else, so the set-up
time is what a fresh CLI process pays, then hands over to `measure.run`.
Prints one JSON object on the last line of stdout.
"""

import sys
from time import perf_counter


def main(argv: list[str]) -> None:
    sys.path.insert(0, argv[0])
    t0 = perf_counter()
    import dirhom.cli
    setup_s = perf_counter() - t0

    import json
    import measure

    print(json.dumps(measure.run(dirhom.cli.main, setup_s, argv[1:])))


if __name__ == "__main__":
    main(sys.argv[1:])
