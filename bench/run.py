"""Seeded benchmark of the multmon CLI: end-to-end latency, or per-layer trace.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the program is imported from `src/` next to this
directory, never from an installed copy.  Each workload is one process
running a closed loop with a single client: every case is one in-process
call of `multmon.cli.main(argv)` on one ideal, stdout captured, timed from
here, and its JSON answer checked against a value the benchmark knows
without the call (see `workloads.py`).

With `--trace 0` the plan runs three times under different variable names;
an input's latency is the fastest of its three, and every time is corrected
for the host's speed drift (see `HostSpeed`).  The last stdout line holds
the end-to-end metrics.  With `--trace 1` one untraced pass is followed by a
traced pass over the same inputs under other names, and the last line holds
the per-layer metrics; spans go to `.bench_out/trace-<workload>.jsonl`.
A readable summary, with uncorrected figures, goes to stderr.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ideals_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# Each input runs once per prefix, under that prefix's variable names: the
# program sees distinct ideals (its caches cannot answer a repeat) doing
# identical work.  "u" (warm-up) and "t" (traced pass) are used elsewhere.
REPEAT_PREFIXES = ("a", "b", "c")
IMPORT_SAMPLES = 9
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import multmon.cli; print(time.perf_counter() - t)"
)

# One tiny case per command, outside every plan (the "u" prefix is never
# used by a plan), run once before timing.
WARMUP = {
    "multiplicity": ["multiplicity", "--ideal", "u0*u1, u1*u2, u2*u3, u3*u0", "--check"],
    "verify": ["verify", "--ideal", "u0*u1, u1*u2, u2*u3, u3*u0"],
    "betti": ["betti", "--ideal", "u0^2*u1, u1^2*u2, u2^2"],
    "taylor": ["taylor", "--ideal", "u0^2*u1, u1^2*u2, u2^2"],
}


class HostSpeed:
    """Samples of a fixed pure-Python loop, interleaved with the timed calls.

    The shared host this benchmark was tuned on drifts in speed by 20-45%
    over tens of seconds, and even the fastest call of a slow spell is slow,
    so no repetition inside a run removes the drift.  Each time is therefore
    scaled by SPIN_REFERENCE_S over the median loop time sampled within
    half a second of the call: times read as host-speed-corrected seconds,
    the time the call would take while the loop runs in SPIN_REFERENCE_S.
    Uncorrected figures are printed to stderr beside them.
    """

    SPIN_ITERATIONS = 8000
    SPIN_REFERENCE_S = 0.00088  # the loop's time in the host's fast spells
    INTERVAL_S = 0.05
    WINDOW_S = 0.5

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        acc = 0
        seen = {}
        for i in range(self.SPIN_ITERATIONS):
            seen[i & 63] = acc
            acc = (acc + i * i) % 1009
        self.stamps.append(start)
        self.durations.append(perf_counter() - start)

    def maybe_sample(self) -> None:
        if not self.stamps or perf_counter() - self.stamps[-1] > self.INTERVAL_S:
            self.sample()

    def corrected(self, start: float, elapsed: float) -> float:
        """`elapsed` seconds from `start`, scaled to the reference speed."""
        lo = bisect.bisect_left(self.stamps, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.stamps, start + elapsed + self.WINDOW_S)
        if hi - lo < 4:  # sparse samples: take the two on either side
            mid = bisect.bisect_left(self.stamps, start)
            lo, hi = max(0, mid - 2), min(len(self.stamps), mid + 2)
        return elapsed * self.SPIN_REFERENCE_S / statistics.median(self.durations[lo:hi])


def _import_program():
    """multmon.cli from this checkout's `src/`, or None if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import multmon.cli as cli
    except ImportError as exc:
        print(f"bench: cannot import multmon from {SRC}: {exc}", file=sys.stderr)
        return None
    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"bench: multmon resolved outside {SRC}: {cli.__file__}", file=sys.stderr)
        return None
    return cli


def _cold_import_s(speed: HostSpeed) -> float:
    """Median time to import multmon.cli in a fresh interpreter, corrected."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        speed.sample()
        done = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        speed.sample()
        samples.append(speed.corrected(perf_counter(), float(done.stdout.strip())))
    return statistics.median(samples)


def _call(cli, argv: list[str]) -> tuple[int, str, float]:
    """(exit code, stdout, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed call, not the end of the run
            code = -1
            err.write(traceback.format_exc())
        elapsed = perf_counter() - start
    if code == -1:
        print(err.getvalue(), file=sys.stderr, end="")
    return code, out.getvalue(), elapsed


class Pass:
    """One closed-loop pass over a plan: per-case latency, failures, output size."""

    def __init__(self, cli, plan, prefix: str, deadline: float, speed: HostSpeed,
                 tracer: Tracer | None = None):
        self.failed = 0
        self.output_bytes = 0
        calls = []
        for index, case in enumerate(plan):
            if perf_counter() > deadline:
                print(f"bench: time limit hit after {index} of {len(plan)} cases", file=sys.stderr)
                break
            if tracer is not None:
                tracer.input_id = index
            speed.maybe_sample()
            start = perf_counter()
            code, output, elapsed = _call(cli, case.argv(prefix))
            calls.append((start, elapsed))
            self.output_bytes += len(output.encode())
            reason = workloads.check(case, code, output)
            if reason is not None:
                self.failed += 1
                print(f"bench: FAILED {case.argv(prefix)[:2]}: {reason}", file=sys.stderr)
        speed.sample()
        self.raw = [elapsed for _, elapsed in calls]
        self.latencies = [speed.corrected(start, elapsed) for start, elapsed in calls]

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def _fastest(repeats) -> list[float]:
    """Per input, the fastest of the repeats that reached it before the time limit."""
    repeats = list(repeats)
    return [min(r[i] for r in repeats if i < len(r)) for i in range(len(repeats[0]))]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    cli = _import_program()
    if cli is None:
        return 2

    plan = workloads.make_plan(args.workload, args.seed, args.seconds)
    speed = HostSpeed()
    import_s = _cold_import_s(speed)
    started = perf_counter()
    for command in sorted({case.command for case in plan}):
        _call(cli, WARMUP[command])
    warmup_s = perf_counter() - started
    speed.sample()
    setup_s = import_s + speed.corrected(started, warmup_s)
    gc.collect()
    gc.freeze()

    if not args.trace:
        deadline = perf_counter() + min(4 * args.seconds, 150)
        passes = [Pass(cli, plan, prefix, deadline, speed) for prefix in REPEAT_PREFIXES]
        attempted = sum(len(p.latencies) for p in passes)
        failed = sum(p.failed for p in passes)
        # An input's latency is the fastest of its repeats, which sit a whole
        # pass apart, so a stall of the host rarely hits all of them.
        best = _fastest(p.latencies for p in passes)
        raw = _fastest(p.raw for p in passes)
        value, pct, beyond = tail(best)
        metrics = {
            "latency_p50_ms": statistics.median(best) * 1000.0,
            "latency_tail_ms": value * 1000.0,
            "ideals_per_s": (attempted - failed) / sum(p.busy_s for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
        uncorrected = {
            "latency_p50_ms": statistics.median(raw) * 1000.0,
            "latency_tail_ms": tail(raw)[0] * 1000.0,
            "ideals_per_s": (attempted - failed) / sum(sum(p.raw) for p in passes),
        }
        units = END_TO_END
        print(f"{args.workload} seed={args.seed}: {len(best)} inputs x {len(passes)} repeats, "
              f"{attempted} calls, {failed} failed", file=sys.stderr)
        for name, unit in units.items():
            note = f"  uncorrected {uncorrected[name]:.4f}" if name in uncorrected else ""
            if name == "latency_tail_ms":
                note += f"  (p{pct:.2f}, {beyond} of {len(best)} inputs beyond)"
            print(f"  {name:<16} {metrics[name]:12.4f} {unit}{note}", file=sys.stderr)
        print(f"  {'failed_frac':<16} {failed / attempted:12.4f} ratio", file=sys.stderr)
        print(f"  host loop median {statistics.median(speed.durations) * 1000:.4f} ms "
              f"(reference {HostSpeed.SPIN_REFERENCE_S * 1000:.4f} ms)", file=sys.stderr)
    else:
        base = Pass(cli, plan, REPEAT_PREFIXES[0], perf_counter() + min(3 * args.seconds, 60), speed)
        tracer = Tracer()
        tracer.install()
        try:
            done = plan[: len(base.latencies)]
            traced = Pass(cli, done, "t", perf_counter() + min(4 * args.seconds, 90), speed, tracer)
        finally:
            tracer.uninstall()
        attempted = len(base.latencies) + len(traced.latencies)
        failed = base.failed + traced.failed
        # Compare like with like if the traced pass stopped early.
        overhead = traced.busy_s / sum(base.latencies[: len(traced.latencies)]) - 1.0
        metrics = layer_metrics(tracer, len(traced.latencies), traced.output_bytes, overhead)
        units = LAYER_METRICS
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}.jsonl")
        top = sorted(
            ((fn, s) for fn, (_, s) in tracer.self_times().items()), key=lambda item: -item[1]
        )[:6]
        print(f"{args.workload} seed={args.seed}: traced {len(traced.latencies)} calls, "
              f"overhead {overhead:+.3f}, {failed} failed", file=sys.stderr)
        for fn, s in top:
            print(f"  {fn:<44} {s:10.4f} s self ({s / sum(traced.raw):6.1%})", file=sys.stderr)

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
