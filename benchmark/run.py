"""Run one dirhom benchmark workload and print its metrics.

    python3 benchmark/run.py --workload homology-q --seed 1 --seconds 25 --trace 0

Builds the workload's inputs from the seed under `.bench_work/`, times the
set-up (`import dirhom.cli`) in several fresh processes, then runs the
job mix in one fresh worker process (see worker.py).  Every job's report
is checked against `reference.json`.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Exits 2 without a result when the dirhom sources are missing or a run
cannot finish.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 10
DEADLINE_S = 170.0

END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_s.p50": "s", "job_s.p90": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def fail(msg: str) -> None:
    print(f"benchmark error: {msg}", file=sys.stderr)
    sys.exit(2)


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by nearest rank: the ceil(q n)-th smallest value."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def job_medians(samples: list, col: int) -> dict[str, float]:
    """Each job's median time over the passes of the run: a typical pass."""
    by_job: dict[str, list[float]] = {}
    for s in samples:
        by_job.setdefault(s[0], []).append(s[col])
    return {k: statistics.median(v) for k, v in sorted(by_job.items())}


def timings(samples: list, col: int, done: int) -> dict[str, float]:
    """Throughput and the p50 and p90 of a typical pass, from column `col`."""
    typical = list(job_medians(samples, col).values())
    passes = len(samples) / len(typical)
    return {"jobs_per_s": done / passes / sum(typical),
            "job_s.p50": nearest_rank(typical, 0.5),
            "job_s.p90": nearest_rank(typical, 0.9)}


def layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def summarize(result: dict, setup: list[dict], trace: bool) -> tuple[dict, dict]:
    """The result line and the info line printed before it."""
    samples = result["samples"]
    failed = [s for s in samples if not s[2]]
    done = len(samples) - len(failed)
    out = {"correct": all(s[2] or s[3] for s in samples),
           "attempted": len(samples), "failed": len(failed)}
    info = {"passes": result["passes"], "samples": len(samples),
            "failed_frac": len(failed) / len(samples),
            "failures": {s[0]: s[4] for s in failed},
            "host.calib_s": result["host.calib_s"],
            "unscaled": dict(timings(samples, 1, done),
                             setup_s=statistics.median(p["setup_s"] for p in setup)),
            "job_median_s": job_medians(samples, 5)}
    if trace:
        values = dict(result["layers"], **{"host.calib_s": result["host.calib_s"]})
        out["metrics"] = {k: {"value": values[k], "unit": u}
                          for k, u in layer_units().items()}
        return out, info
    values = dict(timings(samples, 5, done), peak_rss_mb=result["peak_rss_mb"],
                  setup_s=statistics.median(p["setup_scaled_s"] for p in setup))
    out["metrics"] = {k: {"value": values[k], "unit": END_TO_END_UNITS[k]}
                      for k in END_TO_END_UNITS}
    return out, info


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = monotonic()
    if not (SRC / "dirhom" / "cli.py").is_file():
        fail(f"no dirhom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jobs

    if args.workload not in jobs.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(jobs.WORKLOADS)}")
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    manifest = jobs.generate(args.workload, args.seed, work)
    (work / "manifest.json").write_text(json.dumps(manifest))

    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2 ** 32))
    env.pop("PYTHONPATH", None)
    worker = [sys.executable, str(HERE / "worker.py"), str(SRC)]

    def call(extra: list[str]) -> dict:
        left = DEADLINE_S - (monotonic() - started)
        try:
            proc = subprocess.run(worker + extra, env=env, capture_output=True,
                                  text=True, timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            fail("the run did not finish within the deadline")
        if proc.returncode != 0:
            fail(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    call([])                                # compiles bytecode; not timed
    setup = [call([]) for _ in range(SETUP_PROBES)]
    result = call([str(work / "manifest.json"), str(args.seconds), str(args.trace),
                   str(work / "spans.jsonl")])
    (work / "result.json").write_text(json.dumps(result))
    setup.append({"setup_s": result["setup_s"], "setup_scaled_s": result["setup_scaled_s"]})
    summary, info = summarize(result, setup, bool(args.trace))
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}))
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
