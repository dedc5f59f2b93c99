#!/usr/bin/env python3
"""The repo benchmark: ``python3 bench/run.py --workload NAME --seed N
--seconds S --trace 0|1 [--smoke]``.

Prints every metric by name with its unit, checks every answer against
the oracle, and ends with one JSON line (``correct``, ``attempted``,
``failed``, ``metrics``).  Exits non-zero if any check failed — or, with
no result line, if the program under ``src/`` cannot be imported.
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

T_START = time.perf_counter()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]


def report(line: str = "") -> None:
    print(line, flush=True)


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"], env=env,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def pin_to_one_cpu() -> int:
    """Run the bench and every node it starts on one CPU.

    On a shared host a closed-loop client and its server wake each other
    across vCPUs on every round trip, and when the host is busy the idle
    vCPU is slow to be scheduled again: interleaved runs of svc_analytic
    read 7.0-10.9 ms p50 unpinned and 5.5-6.1 ms pinned, through the same
    slow phase (bench/README.md, noise study).  The protocol is sequential,
    so one CPU costs nothing when the host is quiet.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def header(dropped, cpu) -> None:
    import numpy
    from repro.core.multiquery import range_fold_mode
    from repro.field.modular import DEFAULT_FIELD
    from repro.field.vectorized import get_backend
    from repro.service import resolve_pool_mode

    report("# repro benchmark  commit %s  python %s  numpy %s"
           % (git_commit(), platform.python_version(), numpy.__version__))
    report("# %d cpus, pinned to cpu %d  %s"
           % (os.cpu_count() or 1, cpu, cpu_model()))
    report("# backend %r  pool mode %s  range fold %s  scrubbed env: %s"
           % (get_backend(DEFAULT_FIELD), resolve_pool_mode(),
              range_fold_mode(), ", ".join(dropped) or "none"))


def main(argv=None) -> int:
    from nodes import scrub_environment

    dropped = scrub_environment()
    try:
        import harness
    except ImportError as exc:
        print("cannot import the program under test: %s" % exc,
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="default: all four, one after the other")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=harness.RUN_SECONDS,
                        help="scales the number of passes R; the schedule "
                             "is fixed-count (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, 2 passes (the tier-1 smoke test)")
    args = parser.parse_args(argv)

    # A terminated benchmark still unwinds, so its nodes are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    header(dropped, pin_to_one_cpu())
    ok = True
    for name in [args.workload] if args.workload else list(WORKLOADS):
        report("")
        result = harness.run_workload(
            name, args.seed, args.seconds, bool(args.trace), args.smoke,
            import_s, report)
        ok = ok and result["correct"]
        report(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
