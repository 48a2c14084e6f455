"""Benchmark runner: one seeded, closed-loop workload with one client.

    python3 perfbench/run.py --workload gy-det --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/gylat``.  The client sends
its next job only after the previous one finished.  A pass runs whole rounds
of the workload's job mix, as many as take ``--seconds`` over all passes at
the workload's nominal round time, and at least MIN_JOBS jobs, so the job set
depends on the seed and the seconds only (``workloads.Workload``).  Every
pass runs the same jobs; a job's latency is the fastest of its executions,
because the CPU speed of a shared machine drifts by up to 2x over seconds
and the passes are seconds apart.  Every result is checked outside the timed
region, in a forked child process, so the checks' memory stays out of this
process's peak resident size; a later execution whose output is identical to
a checked one inherits its verdict.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the same rounds run three times for ``--seconds / 3``
each: checked, then each round untraced and traced in turn, and the last
line carries the per-layer
metrics (per round of the mix) and the tracing overhead.  Spans and a per-job
log are written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import platform
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
OUTDIR = ROOT / ".perfbench_out"

MIN_JOBS = 100
SETUP_IMPORTS = 12  # spread over the timed rounds; setup_s is the fastest

IMPORT_PROBE = ("import time; t = time.perf_counter(); import gylat.cli; "
                "print(time.perf_counter() - t)")


def import_times(runs: int, untimed: int = 0) -> list[float]:
    """Wall times of ``import gylat.cli`` in fresh interpreters.

    ``untimed`` imports go first, so the measured ones find the bytecode cache
    that a user's second call would find.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(untimed + runs):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        if i >= untimed:
            times.append(float(out.stdout))
    return times


def blas_threads() -> str:
    """Thread count of numpy's OpenBLAS, when it can be asked."""
    import ctypes
    import glob
    import numpy

    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs",
                                      "*openblas*")):
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), name, None)
            if fn is not None:
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": blas_threads(), "load_generators": 1}


def _digest(outcome) -> str:
    """Hash of a job's outcome; CLI output is hashed in slices to keep no copy."""
    import workloads

    h = hashlib.sha256()
    if isinstance(outcome, workloads.CliResult):
        h.update(f"{outcome.code}\0{outcome.stderr}\0".encode())
        text = outcome.stdout
        for i in range(0, len(text), 1 << 20):
            h.update(text[i:i + (1 << 20)].encode())
    else:
        h.update(repr(outcome).encode())
    return h.hexdigest()


def check_apart(check, outcome) -> str | None:
    """``check(outcome)`` in a forked child: the parent's peak resident size
    stays that of the requests, and the child's memory is freed when it exits."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            try:
                reason = check(outcome)
            except Exception as exc:  # a malformed result is a failed check
                reason = f"check raised {type(exc).__name__}: {exc}"
            os.write(write, json.dumps(reason and reason[:400]).encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    return json.loads(data) if data else "check process died"


def execute(job, tracer=None, verdicts: dict | None = None) -> dict:
    """Run one job: write its files, time the request, then check it.

    ``verdicts`` maps job id to (digest of the outcome, failure reason) from an
    earlier execution; an identical outcome gets the same verdict unchecked.
    """
    for path, text in job.files.items():
        if not path.exists():
            path.write_text(text())
    error = None
    if tracer is not None:
        tracer.job = job.id
    t0 = time.perf_counter()
    try:
        outcome = job.run()
    except Exception as exc:  # a raising request is a failed job, not a crash
        outcome, error = None, exc
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.job = None
    if error is not None:
        reason = f"raised {type(error).__name__}: {error}"[:200]
    else:
        digest = _digest(outcome)
        seen = (verdicts or {}).get(job.id)
        if seen is not None and seen[0] == digest:
            reason = seen[1]
        else:
            reason = check_apart(job.check, outcome)
            if verdicts is not None:
                verdicts[job.id] = (digest, reason)
    # A job of a known defect must fail with that defect's reason; any other
    # reason is an unexpected failure, and a pass is reported as unexpected.
    expected = bool(job.expect and reason and re.search(job.expect, reason))
    return {"id": job.id, "template": job.template, "label": job.label, "wall_s": wall,
            "failed": reason is not None, "expected": expected,
            "unexpected_pass": bool(job.expect) and reason is None, "reason": reason}


def run_rounds(templates, seed: int, n_rounds: int, min_jobs: int = 0, tracer=None,
               verdicts: dict | None = None, after_round=None) -> tuple[list[dict], int]:
    """At least n_rounds whole rounds, and more until min_jobs jobs ran.

    ``after_round(i)`` is called after round i, outside the timed requests.
    """
    import workloads

    results: list[dict] = []
    done = 0
    for jobs in workloads.rounds(templates, seed, WORKDIR):
        if done >= n_rounds and len(results) >= min_jobs:
            break
        results.extend(execute(job, tracer, verdicts) for job in jobs)
        if after_round is not None:
            after_round(done)
        done += 1
    return results, done


def clear_workdir() -> None:
    for path in WORKDIR.iterdir():
        path.unlink()


def warm_up(templates, seed: int) -> list[dict]:
    """One job per template at its smallest size, untimed: imports, BLAS threads."""
    import dataclasses
    small = [dataclasses.replace(t, hi=t.lo, count=1) for t in templates]
    results, _ = run_rounds(small, seed + 7919, 1)
    clear_workdir()  # the timed jobs reuse these file names
    return results


def fastest_of(passes: list[list[dict]]) -> list[dict]:
    """One record per job: fastest execution; failed if any execution failed."""
    out = []
    for runs in zip(*passes):
        bad = [r for r in runs if r["failed"]]
        best = dict(bad[0] if bad else runs[0])
        best["wall_s"] = min(r["wall_s"] for r in runs)
        best["walls"] = [r["wall_s"] for r in runs]
        out.append(best)
    return out


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of the
    order statistics, which does not jump between neighbouring jobs when the
    latencies of a run have gaps (Harrell & Davis, Biometrika 69 (1982) 635)."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    return float(np.diff(betainc(a, b, np.arange(n + 1) / n)) @ x)


def summarise(results: list[dict]) -> dict:
    walls = [r["wall_s"] for r in results]
    failed = [r for r in results if r["failed"]]
    return {"attempted": len(results), "failed": len(failed),
            "unexpected": [r for r in failed if not r["expected"]],
            "unexpected_passes": [r for r in results if r["unexpected_pass"]],
            "timed_s": sum(walls), "walls": walls}


def imports_after_rounds(n_rounds: int, k: int, samples: list[float]):
    """``after_round`` hook that spreads k set-up imports over n_rounds rounds."""
    due = collections.Counter(i * n_rounds // k for i in range(k))
    return lambda i: samples.extend(import_times(due[i]) if due[i] else [])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gylat" / "cli.py").is_file():
        print(f"error: no gylat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    import gylat.cli  # noqa: F401  (the in-process client's own import)

    WORKDIR.mkdir(exist_ok=True)
    env = environment()
    print("environment " + json.dumps(env))
    templates = workload.templates
    warm = warm_up(templates, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    def rounds_for(seconds: float) -> int:
        return max(1, math.ceil(seconds / workload.round_s))

    if not args.trace:
        # Set-up imports are spread over all passes, so that the fastest of
        # them is taken when the machine is fast, like the jobs' latencies.
        import_times(0, untimed=1)  # fills the bytecode cache
        setup: list[float] = []
        verdicts: dict = {}
        per_pass = rounds_for(args.seconds / workload.passes)
        imports = math.ceil(SETUP_IMPORTS / workload.passes)
        passes = [run_rounds(templates, args.seed, per_pass, MIN_JOBS, verdicts=verdicts,
                             after_round=imports_after_rounds(per_pass, imports, setup))]
        n_rounds = passes[0][1]
        # Every job has run once; later passes reuse a heap that earlier
        # jobs fragmented, so their peak depends on the order of the jobs.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for _ in range(workload.passes - 1):
            passes.append(run_rounds(templates, args.seed, n_rounds, verdicts=verdicts,
                                     after_round=imports_after_rounds(n_rounds, imports, setup)))
        results = fastest_of([p for p, _ in passes])
        setup_s = min(setup)
        s = summarise(results)
        walls = s["walls"]
        metrics = {
            "setup_s": (setup_s, "s"),
            "jobs_per_s": (s["attempted"] / s["timed_s"], "1/s"),
            "job_p50_ms": (1e3 * quantile(walls, 0.5), "ms"),
            "job_p90_ms": (1e3 * quantile(walls, 0.9), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"rounds {n_rounds} x {workload.passes} passes, jobs {s['attempted']} "
              f"(p90 over {len(walls)} samples), set-up over {len(setup)} imports, "
              f"timed {s['timed_s']:.3f} s, fail_ratio {s['failed'] / s['attempted']:.6f} "
              f"({s['failed']} failed, {len(s['unexpected'])} unexpectedly; "
              f"{len(s['unexpected_passes'])} known-defect jobs passed)")
        correct = not s["unexpected"]
    else:
        import tracing
        setup_s = None
        verdicts = {}
        # The first pass checks every result and touches memory first.  Then
        # each round runs untraced and traced in turn, first one then the
        # other, so that the machine's drift falls on both alike.
        checked, n_rounds = run_rounds(templates, args.seed, rounds_for(args.seconds / 3),
                                       verdicts=verdicts)
        tracer = tracing.Tracer()
        plain, results = [], []
        for i, jobs in zip(range(n_rounds), workloads.rounds(templates, args.seed, WORKDIR)):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    (results if traced else plain).extend(
                        execute(job, tracer if traced else None, verdicts) for job in jobs)
                finally:
                    tracer.uninstall()
        tracer.write(OUTDIR / f"spans-{tag}.csv")
        s, p = summarise(results), summarise(plain)
        selfs = tracing.self_by_job(tracer.spans)
        share = max(selfs.get(r["id"], 0.0) / r["wall_s"] for r in results)
        layers = tracing.layer_metrics(tracer.spans, n_rounds)
        layers.update({
            "trace.untraced_jobs_per_s": p["attempted"] / p["timed_s"],
            "trace.traced_jobs_per_s": s["attempted"] / s["timed_s"],
            "trace.slowdown": s["timed_s"] / p["timed_s"],
            "trace.self_share_max": share,
            "trace.spans": len(tracer.spans) / max(1, n_rounds),
        })
        metrics = {name: (layers.get(name, 0.0), unit) for name, unit, _ in tracing.PER_LAYER}
        print(f"rounds {n_rounds}, jobs {s['attempted']} traced and {p['attempted']} untraced, "
              f"{len(tracer.spans)} spans, tracing slowdown {layers['trace.slowdown']:.4f}x, "
              f"max self/wall per job {share:.6f}")
        correct = share <= 1.0 and not any(summarise(r)["unexpected"]
                                           for r in (checked, plain, results))
        results = checked + plain + results

    for r in warm:
        if r["failed"] and not r["expected"]:
            correct = False
    for r in results + warm:
        if r["failed"] and not r["expected"]:
            print(f"UNEXPECTED FAILURE job {r['id']} {r['label']}: {r['reason']}")
        if r["unexpected_pass"]:
            print(f"UNEXPECTED PASS job {r['id']} {r['label']}: the known defect did not show")
    clear_workdir()
    WORKDIR.rmdir()
    OUTDIR.mkdir(exist_ok=True)
    with open(OUTDIR / f"jobs-{tag}.json", "w") as fh:
        json.dump({"environment": env, "setup_s": setup_s, "warm_up": warm, "jobs": results},
                  fh, indent=0)

    print(json.dumps({
        "correct": correct,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
