"""Benchmark entry point.

    python3 bench/run.py --workload {edit-mix,view-read,cli-docs} \
        --seed N --seconds S --trace {0,1}

Run it from the root of an ovmrbac checkout; it imports the library from
``src/`` of that checkout and refuses to run anywhere else. The seed fixes
every input and the interpreter's hash seed (``PYTHONHASHSEED``), which the
run pins by re-starting itself, so frozenset iteration order is the same on
every run with that seed; CLI children inherit it.

With ``--trace 0`` the workload runs untraced and the last line of stdout
is a JSON object with the end-to-end metrics. With ``--trace 1`` it runs
half the time untraced and half traced, and reports the per-layer metrics,
the scaling sweep and start-up timings instead; the spans go to
``bench/_work/spans-<workload>.jsonl``. The exit code is 0 only when every
output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import zlib
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# Set-up is repeated and its median reported, so one slow set-up does not
# decide the figure.
SETUPS = 5


def hash_seed(seed: int) -> int:
    """The PYTHONHASHSEED a workload seed runs under (never 0, which disables it)."""
    return zlib.crc32(f"ovmrbac-bench:{seed}".encode()) or 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("edit-mix", "view-read", "cli-docs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure(workload, seconds: float) -> tuple[list[int], int]:
    """Closed loop: step until the program has been busy for ``seconds``.

    Returns the latency samples (one per command for cli-docs, one per step
    otherwise) and the busy nanoseconds; the client's own work of choosing
    and checking operations is not counted.
    """
    samples: list[int] = []
    busy = 0
    target = seconds * 1e9
    first_command = len(getattr(workload, "latencies", ()))
    while busy < target:
        ns = workload.step()
        busy += ns
        samples.append(ns)
    if hasattr(workload, "latencies"):
        samples = workload.latencies[first_command:]
    return samples, busy


def end_to_end(cls, args, root: str) -> tuple[dict, object]:
    setup_s = []
    for _ in range(SETUPS):
        start = perf_counter()
        workload = cls(args.seed, root)
        workload.setup()
        setup_s.append(perf_counter() - start)
    samples, busy = measure(workload, args.seconds)
    workload.finish()
    q = statistics.quantiles(samples, n=100, method="inclusive")
    who = resource.RUSAGE_CHILDREN if cls.name == "cli-docs" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (len(samples) / (busy / 1e9), "1/s"),
        "latency_p50_ms": (q[49] / 1e6, "ms"),
        "latency_p90_ms": (q[89] / 1e6, "ms"),
        "latency_p99_ms": (q[98] / 1e6, "ms"),
        "ok_ratio": ((workload.attempted - workload.failed) / workload.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    print(f"# {len(samples)} samples, setups {[round(s, 3) for s in setup_s]} s")
    return metrics, workload


def traced(cls, args, root: str) -> tuple[dict, object]:
    from sweep import growth, startup
    from spans import Tracer, layer_metrics

    kwargs = {"in_process": True} if cls.name == "cli-docs" else {}
    workload = cls(args.seed, root, **kwargs)
    workload.setup()
    samples, busy = measure(workload, args.seconds / 2)
    untraced_rate = len(samples) / busy
    tracer = Tracer()
    with tracer.installed():
        samples, busy = measure(workload, args.seconds / 2)
    traced_rate = len(samples) / busy
    workload.finish()
    values = layer_metrics(tracer.spans)
    values["trace.overhead_ratio"] = traced_rate / untraced_rate
    values.update(growth(args.seed))
    values.update(startup(dict(os.environ, PYTHONPATH=os.path.join(root, "src"))))
    out_dir = os.path.join(BENCH_DIR, "_work")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{cls.name}.jsonl"))
    print(f"# {len(tracer.spans)} spans")
    return {name: (value, unit_of(name)) for name, value in values.items()}, workload


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".per_decision"):
        return "calls/decision"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    return "ratio"


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ovmrbac", "__init__.py")):
        print("error: run from the root of an ovmrbac checkout "
              "(src/ovmrbac not found)", file=sys.stderr)
        return 2
    pinned = str(hash_seed(args.seed))
    if os.environ.get("PYTHONHASHSEED") != pinned:
        env = dict(os.environ, PYTHONHASHSEED=pinned)
        child = [sys.executable, os.path.abspath(__file__), *sys.argv[1:]]
        return subprocess.run(child, env=env).returncode

    sys.path[:0] = [os.path.join(root, "src"), BENCH_DIR]
    import ovmrbac

    if not os.path.abspath(ovmrbac.__file__).startswith(os.path.join(root, "src")):
        print(f"error: ovmrbac imported from {ovmrbac.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    print(f"# workload={args.workload} seed={args.seed} PYTHONHASHSEED={pinned} "
          f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
          f"trace={args.trace}")
    metrics, workload = (traced if args.trace else end_to_end)(cls, args, root)
    for message in workload.errors:
        print(f"FAILED: {message}", file=sys.stderr)
    correct = workload.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
