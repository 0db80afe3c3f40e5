"""blinfty benchmark: one closed-loop client, one process, no threads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src.  Each op is one library or CLI call that waits for the previous one,
and every answer is checked (see workloads.py).  The workload's ops run in
whole passes until S seconds have gone by.  Each op's latency is its best
over the passes: on a shared host the CPU speed flips between states for
seconds at a time, and the best of several repeats measures the code, not
the neighbours.

--trace 0 prints the end-to-end metrics.  --trace 1 wraps each module's
public entry points (tracer.py), reports the per-layer metrics per op, then
replays the same ops untraced for trace.overhead_ratio, and writes the
spans to .bench_build/trace/.  The last line of stdout is the JSON result;
the line before it is a JSON record of sample counts, environment and the
answer digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, load_library  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def add_sources():
    """Put the checkout's src/ on sys.path; False when it has no sources."""
    src = ROOT / "src"
    if not (src / "blinfty" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def set_up(name, seed, workdir, tiny=False):
    """Import the library, generate the inputs and warm up; returns the
    workload and the seconds it took."""
    t0 = time.perf_counter()
    lib = load_library()
    workload = WORKLOADS[name](lib, seed, workdir, tiny=tiny)
    workload.warm_up()
    return workload, time.perf_counter() - t0


class Run:
    """Latencies per pass and op, failures, and the first pass's answers."""

    def __init__(self):
        self.latencies = []
        self.failed = []
        self.answers = []

    @property
    def passes(self):
        return len(self.latencies)

    @property
    def attempted(self):
        return sum(len(p) for p in self.latencies)

    def best(self):
        """Each op's fastest latency over the passes."""
        return [min(col) for col in zip(*self.latencies)]

    def ops_per_s(self):
        """Ops whose answers were correct in every pass, per second of
        best-of-passes op time."""
        bad = {f["op"] for f in self.failed}
        best = self.best()
        return (len(best) - len(bad)) / sum(best)

    def digest(self):
        """sha256 over the first pass's (label, kind/level, exit code)."""
        h = hashlib.sha256()
        for answer in self.answers:
            h.update(repr(answer).encode("utf-8"))
        return h.hexdigest()


def run_loop(workload, seconds, tracer=None, passes=None, after_pass=None):
    """Repeat the workload's ops in whole passes until `seconds` have gone
    by (at least one pass), or exactly `passes` times; `after_pass` runs
    after every pass."""
    run = Run()
    t_start = time.perf_counter()
    while (run.passes < passes if passes is not None else
           run.passes == 0 or time.perf_counter() - t_start < seconds):
        latencies = []
        for i, op in enumerate(workload.ops):
            prepared = op.prepare()
            if tracer is not None:
                tracer.begin_op(run.attempted + i)
            t0 = time.perf_counter()
            try:
                result = op.run(prepared)
                error = None
            except Exception as e:  # a crashing op is a failed op
                error = "%s: %s" % (type(e).__name__, e)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end_op()
            latencies.append(t1 - t0)
            if error is None:
                try:
                    ok, answer = op.check(result)
                except Exception as e:
                    ok, answer = False, (op.label, "check-error", repr(e))
            else:
                ok, answer = False, (op.label, "error", error)
            if run.passes == 0:
                run.answers.append(answer)
            if not ok:
                run.failed.append({"pass": run.passes, "op": i,
                                   "label": op.label, "answer": repr(answer)})
        run.latencies.append(latencies)
        if after_pass is not None:
            after_pass()
    return run


def percentile(values, q):
    """Inclusive-method quantile (q in 0..100), as statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run, setups):
    best = run.best()
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": run.ops_per_s(), "unit": "1/s"},
        "op_p50_ms": {"value": 1000 * statistics.median(best), "unit": "ms"},
        "op_p90_ms": {"value": 1000 * percentile(best, 90), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def main(argv=None):
    args = parse_args(argv)
    if not add_sources():
        print("bench: no blinfty sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    # the threaded structure check is opt-in; benchmark the default
    threads_env = os.environ.pop("BLINFTY_THREADS", None)
    build = ROOT / ".bench_build"
    workdir = build / ("work-%s-%d" % (args.workload, os.getpid()))
    try:
        workload, seconds = set_up(args.workload, args.seed, workdir / "run")
        setups = [seconds]

        def set_up_again():
            # Spread over the run, the set-up samples see the host's fast
            # and slow spells alike; the workload keeps its own modules.
            again = workdir / str(len(setups))
            setups.append(set_up(args.workload, args.seed, again)[1])
            shutil.rmtree(again, ignore_errors=True)

        detail = {"workload": args.workload, "seed": args.seed,
                  "python": platform.python_version(),
                  "nproc": len(os.sched_getaffinity(0)),
                  "BLINFTY_THREADS": threads_env}
        if args.trace:
            tracer = Tracer()
            tracer.install(workload.lib)
            try:
                run = run_loop(workload, args.seconds, tracer=tracer)
            finally:
                tracer.uninstall()
            replay = run_loop(workload, 0, passes=run.passes)
            ratio = sum(replay.best()) / sum(run.best())
            metrics = tracer.metrics(run.attempted, ratio)
            spans = build / "trace" / ("%s-seed%d.tsv.gz" % (args.workload,
                                                             args.seed))
            tracer.write(spans)
            detail.update(spans=str(spans.relative_to(ROOT)),
                          span_count=len(tracer.start),
                          unwrapped=tracer.missing,
                          replay_failed=len(replay.failed),
                          replay_digest_matches=replay.digest() == run.digest())
        else:
            run = run_loop(workload, args.seconds, after_pass=set_up_again)
            metrics = end_to_end(run, setups)
        attempted = run.attempted
        every = [t for p in run.latencies for t in p]
        detail.update(samples={"setup_s": len(setups),
                               "ops_per_s": len(workload.ops),
                               "op_p50_ms": len(workload.ops),
                               "op_p90_ms": len(workload.ops),
                               "best_of_passes": run.passes},
                      setups_s=setups, ops=attempted, passes=run.passes,
                      all_ops_p50_ms=1000 * statistics.median(every),
                      all_ops_per_s=(attempted - len(run.failed)) / sum(every),
                      fail_ratio=len(run.failed) / attempted,
                      failures=run.failed[:10],
                      digest=run.digest(), digest_ops=len(run.answers))
        print(json.dumps(detail, sort_keys=True))
        correct = not run.failed and (not args.trace or (
            not replay.failed and detail["replay_digest_matches"]))
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": len(run.failed), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
