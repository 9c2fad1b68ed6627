"""forbidtree benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process. It sets up the workload's inputs
(timed as setup_s: set up several times, once here and the rest in
fresh processes, and the median reported), then runs whole rounds of the
same operations until the operations have taken S seconds, checks every
output outside the timed intervals, and prints one JSON object as its last
line. Every timing is rescaled to a nominal machine speed (see scaled());
the timings as measured go to standard error.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it wraps
the program's public functions (see tracing.py) and reports per-layer
metrics instead.

    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]

runs every workload, each in its own process, and prints a table; with
--trace 1 it also makes the traced runs and prints the tracing overhead.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / ".work"
NAMES = ["embed-deep", "avoid-sweep", "blocked-verdict", "search-min"]
# The probe's time in the quickest stretches seen on the reference machine
# (nproc 2, Python 3.11.7); it only sets the scale of the reported timings.
NOMINAL_PROBE_S = 0.65e-3


def _kernel() -> int:
    """Fixed interpreter-bound work: integer orientation signs, set and dict churn."""
    acc = 0
    seen = set()
    table = {}
    for i in range(40):
        for j in range(40):
            det = (i - 20) * (j * 7 % 41 - 20) - (j - 20) * (i * 11 % 43 - 20)
            acc += (det > 0) - (det < 0)
            seen.add((i * 41 + j) ^ acc)
            table[i, j & 7] = acc
    return acc + len(seen) + len(table)


def probe() -> float:
    """Seconds the fixed kernel takes now: the quickest of three runs."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, before: float, after: float) -> float:
    """A measured time rescaled to the nominal machine speed.

    This host's speed drifts by up to 1.6x over seconds to minutes. The
    probe runs just before and just after each timed interval, and the
    interval is scaled by nominal / (mean probe time), so that the drift
    cancels and a change in the program's own cost remains.
    """
    return seconds * NOMINAL_PROBE_S / ((before + after) / 2)


class Clock:
    """Times the program calls that make up one operation.

    An operation hands each program call to the clock, which sums the
    call's time as measured (raw) and rescaled (scaled). The probes run
    between calls, outside the timed intervals, so a long operation made
    of many calls is rescaled piece by piece.
    """

    def __init__(self):
        self.last_probe = probe()
        self.raw = self.scaled = 0.0

    def __call__(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            took = time.perf_counter() - start
            before, self.last_probe = self.last_probe, probe()
            self.raw += took
            self.scaled += scaled(took, before, self.last_probe)


def import_program() -> None:
    """Import forbidtree from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import forbidtree

    if Path(forbidtree.__file__).resolve().parent != SRC / "forbidtree":
        raise ImportError(f"forbidtree came from {forbidtree.__file__}, not {SRC}")


def timed_setup(workload, seed: int):
    """Set the workload up in a fresh work directory.

    Returns (seconds, scaled seconds, state, work directory).
    """
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        before = probe()
        start = time.perf_counter()
        state = workload.setup(seed, workdir)
        took = time.perf_counter() - start
        return took, scaled(took, before, probe()), state, workdir
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise


def setup_in_child(name: str, seed: int) -> tuple[float, float]:
    """(seconds, scaled seconds) of one set-up in a fresh process."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    raw, norm = proc.stdout.split()[-2:]
    return float(raw), float(norm)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    raw_setup, setup_s, state, workdir = timed_setup(workload, seed)
    setups = [(raw_setup, setup_s)]
    try:
        setup_sums = tracer.snapshot() if tracer else None
        op_sums = Counter()
        raw: list[float] = []
        times: list[float] = []
        attempted = failed = 0
        correct = True
        busy = 0.0
        while busy < seconds:
            gc.collect()
            before = tracer.snapshot() if tracer else None
            done = []
            clock = Clock()
            for item in state["items"]:
                attempted += 1
                clock.raw = clock.scaled = 0.0
                try:
                    out = workload.op(state, item, clock)
                except Exception:
                    failed += 1
                    traceback.print_exc()
                    continue
                finally:
                    busy += clock.raw
                raw.append(clock.raw)
                times.append(clock.scaled)
                done.append((item, out))
            if tracer:
                op_sums.update(tracer.snapshot() - before)
            for item, out in done:
                try:
                    workload.check(state, item, out)
                except AssertionError as ex:
                    correct = False
                    print(f"{name}: wrong output: {ex}", file=sys.stderr)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            workload.final_check(state)
        except AssertionError as ex:
            correct = False
            print(f"{name}: wrong output: {ex}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        # The other set-ups run in fresh processes, so that no cache the
        # program keeps between calls is warm, and after the timed rounds,
        # so that they sample the host's speed at other moments.
        setups += [setup_in_child(name, seed) for _ in range(workload.setups - 1)]

    p50_ms = statistics.median(times) * 1000 if times else 0.0
    if times:
        print(f"{name}: as measured, unscaled: op_p50_ms {statistics.median(raw) * 1000:.4f}, "
              f"ops_per_s {len(raw) / sum(raw):.4f}, "
              f"setup_s {statistics.median(s for s, _ in setups):.4f}", file=sys.stderr)
    if trace:
        metrics = tracing.layer_metrics(setup_sums, op_sums, max(len(times), 1),
                                        setup_s / raw_setup, sum(times) / sum(raw) if raw else 1.0)
        metrics["trace.op_p50_ms"] = (p50_ms, "ms")
    else:
        metrics = {
            "setup_s": (statistics.median(s for _, s in setups), "s"),
            "ops_per_s": (len(times) / sum(times) if times else 0.0, "1/s"),
            "op_p50_ms": (p50_ms, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Run each workload in its own process; print every metric as it arrives."""
    results = {}
    for name in NAMES:
        for traced in (False, True) if trace else (False,):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(traced))],
                capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} exited with {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            results.setdefault(name, {}).update(result["metrics"])
            print(f"{name}{' (traced)' if traced else ''}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:42s} {m['value']:14.4f} {m['unit']}")
        if trace:
            overhead = results[name]["trace.op_p50_ms"]["value"] / results[name]["op_p50_ms"]["value"]
            print(f"  {'tracing overhead (traced / untraced p50)':42s} {overhead:14.4f} x")
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    import_program()
    for _ in range(20):  # let the interpreter specialise the probe's code
        probe()
    if args.workload is None:
        print(json.dumps(run_all(args.seed, args.seconds, bool(args.trace))))
        return 0
    if args.setup_only:
        import workloads

        raw, norm, _, workdir = timed_setup(workloads.WORKLOADS[args.workload], args.seed)
        shutil.rmtree(workdir, ignore_errors=True)
        print(raw, norm)
        return 0
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
