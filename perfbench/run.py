"""Benchmark entry point.

    python3 perfbench/run.py --workload {exhaustive2,random3,tools} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from its
``src/`` directory and nothing needs building.  Inputs depend only on the
seed.  The timed region lasts about ``--seconds``; set-up, the output
checks and the cold-start probes run outside it.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` makes one untraced and one traced
pass in this process and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch files and span dumps
go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import hostspeed  # noqa: E402  (sibling modules; their directory is on sys.path)
import workloads  # noqa: E402

# Set-ups are taken before and after the timed region rather than at one
# moment, because the host's speed drifts; each is rescaled to the reference
# host speed by the reference run either side of it (hostspeed.py).
SETUP_BEFORE, SETUP_AFTER = 4, 3
COLD_SAMPLES = 25
IMPORT_SAMPLES = 5


def import_package() -> types.SimpleNamespace:
    """Import the package afresh from ``src/`` (dropping any loaded copy),
    so each set-up pays for the package's own import."""
    for name in [m for m in sys.modules if m == "kripkelewis" or m.startswith("kripkelewis.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("kripkelewis")
    cli = importlib.import_module("kripkelewis.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "kripkelewis":
        raise ImportError(f"kripkelewis was imported from {pkg.__file__}, not from {SRC}")
    mods = {name: sys.modules[f"kripkelewis.{name}"] for name in (
        "correspondence", "axioms", "model", "properties", "revision", "parser", "formula")}
    return types.SimpleNamespace(cli=cli, **mods)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "kripkelewis" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'kripkelewis'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]

    def set_up():
        before = hostspeed.reference()
        t0 = time.perf_counter()
        pkg = import_package()
        state = workload.setup(pkg, args.seed, OUT)
        wall = time.perf_counter() - t0
        return pkg, state, wall * hostspeed.scale([before, hostspeed.reference()])

    setup_times = []
    for _ in range(1 if args.trace else SETUP_BEFORE):
        pkg, state, setup_s = set_up()
        setup_times.append(setup_s)

    if args.trace:
        outcome, layer = workload.trace(pkg, state, OUT)
        if args.workload == "tools":
            layer["cli.import_ms"] = (
                statistics.median(workloads.import_ms(ROOT, child_env(), IMPORT_SAMPLES)), "ms")
        else:
            layer["cli.import_ms"] = (0.0, "ms")
        layer["failed_frac"] = (outcome.failed / outcome.attempted, "frac")
        metrics = layer
    else:
        outcome = workload.measure(pkg, state, args.seconds)
        setup_times += [set_up()[2] for _ in range(SETUP_AFTER)]
        peak_mb = peak_rss_mb()  # before the cold-start processes, which are children too
        cold_ms = workloads.cold_cli_ms(ROOT, child_env(), COLD_SAMPLES)
        metrics = {
            "throughput_per_s": (outcome.median(lambda w: w.items / w.seconds), "1/s"),
            "latency_ms.p50": (outcome.median(lambda w: w.percentile(50)) * 1e3, "ms"),
            "latency_ms.p99": (outcome.median(lambda w: w.percentile(99)) * 1e3, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "cli_cold_ms.p50": (statistics.median(cold_ms), "ms"),
        }

    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
