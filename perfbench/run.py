"""ffheight benchmark: one workload per run, timed in whole rounds.

    python3 perfbench/run.py --workload census-fibers --seed 1 --seconds 25 --trace 0

A round runs the workload's whole job list once, in one process.  Rounds
repeat until the next one would end after --seconds (at least one round
runs), so every run attempts whole rounds and the share of failed jobs is
the same in every run.  After the timed rounds, the first round's outputs
are checked against independent answers (oracles.py) and every later
round must repeat them exactly.  The last line of stdout is one JSON
object: correct, attempted, failed and the metrics; with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer ones from tracer.py.
See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
TAIL_BEYOND = 10  # jobs that must lie beyond the tail percentile


def _load_program():
    """Import ffheight from this checkout's src/, never from elsewhere."""
    if not (SRC / "ffheight" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no ffheight sources under {SRC}\n")
        return False
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import ffheight

    if SRC not in Path(ffheight.__file__).resolve().parents:
        sys.stderr.write(f"perfbench: ffheight imported from {ffheight.__file__}\n")
        return False
    return True


def _setup_seconds(workload, seed):
    """Median wall time of fresh interpreters that import ffheight and build
    the workload's inputs, as a user's process would before its first job."""
    times = []
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode()[-500:]}")
    return statistics.median(times)


class Round:
    def __init__(self, jobs, tracer=None):
        self.wall, self.cpu, self.outs, self.errs = [], [], [], []
        self.snapshot = None
        ctx = {}
        if tracer:
            tracer.reset()
            tracer.install()
        try:
            for job in jobs:
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    out, err = job.run(ctx), None
                except Exception as e:  # a failed job is counted, not fatal
                    out, err = None, f"{type(e).__name__}: {e}"
                t1, c1 = time.perf_counter(), time.process_time()
                ctx[job.name] = out
                self.wall.append(t1 - t0)
                self.cpu.append(c1 - c0)
                self.outs.append(out)
                self.errs.append(err)
        finally:
            if tracer:
                tracer.uninstall()
                self.snapshot = tracer.snapshot()
        self.digests = [
            job.digest(out) if err is None else None
            for job, out, err in zip(jobs, self.outs, self.errs)
        ]

    @property
    def seconds(self):
        return sum(self.wall)


def run_rounds(jobs, seconds, tracer=None):
    """Untraced rounds, or untraced and traced rounds in turn when tracing."""
    rounds, traced = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        r = Round(jobs)
        if rounds:
            r.outs = None  # only the first round's outputs are checked
        rounds.append(r)
        if tracer:
            gc.collect()
            traced.append(Round(jobs, tracer))
            traced[-1].outs = None
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return rounds, traced


def verify(jobs, rounds):
    """(failed operations, messages of failing jobs).  A job fails in a round
    when it raises, when its first output disagrees with the oracle, or when
    the round's output differs from the first round's."""
    first = rounds[0]
    failed, messages = 0, []
    for j, job in enumerate(jobs):
        if first.errs[j] is not None:
            verdict = f"raised {first.errs[j]}"
        else:
            try:
                verdict = job.check(first.outs[j])
            except Exception as e:  # a check that cannot run is a failure
                verdict = f"check raised {type(e).__name__}: {e}"
        bad_rounds = 0
        for r in rounds:
            if verdict or r.errs[j] is not None or r.digests[j] != first.digests[j]:
                bad_rounds += 1
        if bad_rounds:
            failed += bad_rounds
            why = verdict or "output changed between rounds"
            messages.append((job, f"{job.name}: {why} ({bad_rounds}/{len(rounds)} rounds)"))
    return failed, messages


def tail_percentile(n):
    """Highest whole percentile with at least TAIL_BEYOND of n values above
    its interpolation point."""
    for p in range(99, 0, -1):
        if n - 1 - math.floor(p / 100 * (n - 1)) >= TAIL_BEYOND:
            return p
    return 50


def percentile(values, p):
    xs = sorted(values)
    pos = p / 100 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(rounds, setup_s, peak_rss_mb):
    """Each job's median over the rounds, then the job list's total, median
    and tail over those medians: a burst of load on the machine that slows
    one round moves no job's median."""
    per_job = [statistics.median(r.wall[j] for r in rounds)
               for j in range(len(rounds[0].wall))]
    per_job_cpu = [statistics.median(r.cpu[j] for r in rounds)
                   for j in range(len(rounds[0].cpu))]
    p = tail_percentile(len(per_job))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_job), "s"),
        "cpu_s": (sum(per_job_cpu), "s"),
        "job_p50_ms": (1000 * statistics.median(per_job), "ms"),
        "job_tail_ms": (1000 * percentile(per_job, p), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, p


def per_layer(traced):
    from tracer import LAYER_METRICS

    values = [r.snapshot.metrics() for r in traced]
    out, unsteady = {}, []
    for name, unit, _, _ in LAYER_METRICS:
        series = [v[name] for v in values]
        if unit == "s":
            out[name] = (statistics.median(series), unit)
        else:
            out[name] = (series[0], unit)
            if any(x != series[0] for x in series):
                unsteady.append(name)
    return out, unsteady


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not _load_program():
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    else:
        setup_s = _setup_seconds(args.workload, args.seed)
    rounds, traced = run_rounds(jobs, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, messages = verify(jobs, rounds + traced)
    correct = not any(not job.known_fault for job, _ in messages)
    for job, msg in messages:
        tag = "known fault" if job.known_fault else "FAIL"
        sys.stderr.write(f"{tag}: {msg}\n")

    n_rounds = len(rounds) + len(traced)
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs x "
          f"{n_rounds} rounds, {failed} failed")
    if args.trace:
        metrics, unsteady = per_layer(traced)
        plain = statistics.median(r.seconds for r in rounds)
        with_trace = statistics.median(r.seconds for r in traced)
        print(f"trace overhead: traced round {with_trace:.3f} s vs untraced "
              f"{plain:.3f} s ({100 * (with_trace / plain - 1):+.1f}%)")
        for name in tracer.skipped:
            print(f"trace: skipped {name} (not found in this version)")
        if unsteady:
            print(f"trace: counts differ between rounds: {', '.join(unsteady)}")
    else:
        metrics, p = end_to_end(rounds, setup_s, peak_rss_mb)
        print(f"job_tail_ms is p{p} of {len(jobs)} per-job medians")
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs) * n_rounds,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
