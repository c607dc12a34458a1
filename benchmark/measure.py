"""The measured part of a benchmark run; `worker.py` calls `run`.

A run times one untimed warm-up pass of the job mix, then whole passes in
a closed loop with one client (a job starts when the previous one has
returned and its report has been checked) for about SECONDS, and at least
two passes.  With tracing it alternates untraced and traced passes
instead and adds per-layer metrics.

On a shared VM the CPU speed can swing by 2x within minutes (on a 2-core
Xeon VM the same job took 3.5 s and 8.0 s in consecutive runs), and it
changes within a single multi-second job too.  So a fixed exact
elimination over `fractions.Fraction`, the kind of work dirhom does, is
timed before and after every job and, from a SIGALRM handler, every
SAMPLE_EVERY_S while the job runs.  A job's time is its wall time minus
the time spent in those samples; it is also reported scaled by CALIB_REF_S
times the job's mean sampled speed (1 / calibration): seconds on a host
where the calibration takes CALIB_REF_S.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import resource
import signal
import statistics
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import jobs as J

CALIB_REF_S = 0.0015
SAMPLE_EVERY_S = 0.05

# The id()-keyed caches of dirhom grow with every job, so peak RSS is read
# after a fixed number of measured passes; reading it at the end of a
# time-bounded run would make it depend on how fast the host ran.
RSS_PASSES = 2

_rng = random.Random(16)
_CALIB_MATRIX = [[_rng.randint(-3, 3) for _ in range(8)] for _ in range(8)]


def calibrate() -> float:
    """Wall time of a fixed Gauss-Jordan elimination over Fraction, gc off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        rows = [[Fraction(v) for v in r] for r in _CALIB_MATRIX]
        n, r = len(rows), 0
        for c in range(n):
            piv = next((i for i in range(r, n) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = rows[r][c]
            rows[r] = [v / inv for v in rows[r]]
            for i in range(n):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            r += 1
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Calibrations taken on demand and, inside `sampling()`, from SIGALRM."""

    def __init__(self):
        self.calibs: list[float] = []
        self.spent = 0.0            # seconds spent taking calibrations
        self._busy = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:          # an alarm during a slow calibration is dropped
            self.sample()

    def sample(self) -> None:
        self._busy = True
        t0 = perf_counter()
        self.calibs.append(calibrate())
        self.spent += perf_counter() - t0
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


class GcClock:
    """Collections and time spent in them, from `gc.callbacks`."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._t0 = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = perf_counter()
        else:
            self.seconds += perf_counter() - self._t0
            self.collections += 1

    @contextlib.contextmanager
    def on(self):
        gc.callbacks.append(self)
        try:
            yield
        finally:
            gc.callbacks.remove(self)


def run_verb(main, args: list[str]) -> tuple[int, str, str | None]:
    """Call the CLI in-process: (exit code, stdout, error if it raised)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args, standalone_mode=False)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception as exc:  # a crash is a failed job, not a benchmark error
            error = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), error


class Runner:
    """Runs and checks the jobs of one manifest, sampling host speed as they run."""

    def __init__(self, main, manifest: dict):
        self.main = main
        self.jobs = manifest["jobs"]
        self.inv = J.Inverse(manifest["back"])
        self.ref = J.load_reference()
        self.rng = random.Random(manifest["order_seed"])
        self.ran = 0
        self.clock = HostClock()
        self.clock.sample()

    def run_job(self, job, sample: bool = True) -> list:
        """[name, s, ok, signalled, detail, scaled s]; the time covers the check.

        Without `sample` (traced passes, whose spans must not hold calibrations)
        only the calibrations before and after the job scale it.
        """
        clock = self.clock
        first, spent = len(clock.calibs) - 1, clock.spent
        t0 = perf_counter()
        with clock.sampling() if sample else contextlib.nullcontext():
            code, stdout, error = run_verb(self.main, job["args"])
            outcome = J.check(job["verb"], self.ref[job["name"]], code, stdout,
                              self.inv, error)
        dt = perf_counter() - t0 - (clock.spent - spent)
        self.ran += 1
        clock.sample()
        speed = statistics.fmean(1 / c for c in clock.calibs[first:])
        scaled = dt * CALIB_REF_S * speed
        return [job["name"], dt, outcome.ok, outcome.signalled, outcome.detail, scaled]

    def run_pass(self, on_job=None, sample: bool = True) -> list:
        """All jobs once, in this pass's seeded order."""
        order = list(self.jobs)
        self.rng.shuffle(order)
        samples = []
        for job in order:
            if on_job:
                on_job(len(samples))
            samples.append(self.run_job(job, sample))
        return samples


def more_time(start: float, passes: int, seconds: float) -> bool:
    """Whether another pass fits: it should end within half a pass of SECONDS."""
    elapsed = perf_counter() - start
    return elapsed + 0.5 * elapsed / passes < seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cache_sizes() -> dict[str, int]:
    from dirhom import cubechain, exactseq

    return {"cache.catalog_entries": len(cubechain._catalog_cache),
            "cache.quotient_entries": len(exactseq.QuotientComplexCache._cache),
            "cache.left_quotient_entries": len(exactseq._LeftQuotientCache._cache)}


def run(main, setup_s: float, argv: list[str]) -> dict:
    """One run; argv is [] (set-up probe) or MANIFEST SECONDS TRACE [SPANS_PATH]."""
    calib = statistics.median(calibrate() for _ in range(5))
    result = {"setup_s": setup_s, "setup_scaled_s": setup_s * CALIB_REF_S / calib}
    if not argv:
        return result
    manifest_path, seconds, trace = argv[0], float(argv[1]), argv[2] == "1"
    runner = Runner(main, json.loads(Path(manifest_path).read_text()))
    runner.run_pass()                       # warm-up, untimed
    result.update(samples=[], passes=0)
    start = perf_counter()
    if not trace:
        while result["passes"] < RSS_PASSES or more_time(start, result["passes"], seconds):
            result["samples"] += runner.run_pass()
            result["passes"] += 1
            if result["passes"] == RSS_PASSES:
                result["peak_rss_mb"] = peak_rss_mb()
    else:
        from tracer import Tracer, layer_metrics

        tracer, clock = Tracer(), GcClock()
        plain = traced = 0.0
        while result["passes"] == 0 or more_time(start, result["passes"], seconds):
            with clock.on():
                samples = runner.run_pass()
            plain += sum(s[1] for s in samples)
            result["samples"] += samples
            base = result["passes"] * len(runner.jobs)
            tracer.install()
            try:
                samples = runner.run_pass(
                    on_job=lambda k: (tracer.end_job(), tracer.start_job(base + k)),
                    sample=False)
            finally:
                tracer.uninstall()
                tracer.end_job()
            traced += sum(s[1] for s in samples)
            result["samples"] += samples
            result["passes"] += 1
        njobs = result["passes"] * len(runner.jobs)
        layers = layer_metrics(tracer.names, tracer.spans, njobs)
        layers.update({k: v / runner.ran for k, v in cache_sizes().items()})
        layers["py.gc_s"] = clock.seconds / njobs
        layers["py.gc_collections"] = clock.collections / njobs
        layers["trace.overhead_frac"] = traced / plain - 1.0
        result["layers"] = layers
        if len(argv) > 3:
            tracer.write(argv[3])
    result["host.calib_s"] = statistics.median(runner.clock.calibs)
    return result
