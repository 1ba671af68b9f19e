"""Scaling sweep and interpreter start-up timings for the traced run.

The sweep times six layer functions on chain models of size n and 4n and
reports each cost ratio as ``<layer>.growth_4x``: about 4 means linear in
model size, about 16 quadratic, about 1 flat. Calls are timed directly,
without the tracer's wrappers.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
from time import perf_counter_ns

import ovmrbac as o

import gen

SIZES = (200, 800)
PASSES = 3


def _per_call_ns(calls) -> float:
    """Median over passes of the mean time of one call in ``calls``."""
    means = []
    for _ in range(PASSES):
        start = perf_counter_ns()
        for call in calls:
            call()
        means.append((perf_counter_ns() - start) / len(calls))
    return statistics.median(means)


def _costs(n: int, seed: int) -> dict[str, float]:
    model = gen.build_model("chain", n, random.Random(seed))
    rng = random.Random(seed)
    policy = gen.build_policy(model, rng, category_roles=4, element_roles=4,
                              category_grants=6, element_grants=40, users=8)
    text = o.save_model(model)
    ids = gen.element_texts(model)
    probes = [(f"user{rng.randrange(8)}", rng.choice(o.OPERATION_CATALOG),
               o.ObjectId(rng.choice(ids))) for _ in range(40)]
    categories = list(o.Category)
    return {
        "rbac.check_access": _per_call_ns(
            [lambda p=p: o.check_access(policy, model, *p) for p in probes]),
        "rbac.category_members": _per_call_ns(
            [lambda c=c: o.rbac.category_members(model, c) for c in categories]),
        "session.derive_view": _per_call_ns(
            [lambda r=r: o.derive_view(policy, model, r) for r in ("cat0", "cat1", "cat2", "cat3")]),
        "model.check_structure": _per_call_ns([lambda: o.check_structure(model)]),
        "model_io.load_model": _per_call_ns([lambda: o.load_model(text)]),
        "model.mutate": _per_call_ns(
            [lambda: o.remove_variant(o.add_variant(model, "sweep variant"), "sweep variant")]
        ) / 2,
    }


def growth(seed: int) -> dict[str, float]:
    small, large = (_costs(n, seed) for n in SIZES)
    return {f"{name}.growth_4x": large[name] / small[name] for name in small}


def startup(env: dict, reps: int = 7) -> dict[str, float]:
    """Bare interpreter start-up, and ``import ovmrbac.cli`` on top of it."""

    def median_ms(code: str) -> float:
        times = []
        for _ in range(reps):
            start = perf_counter_ns()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            times.append((perf_counter_ns() - start) / 1e6)
        return statistics.median(times)

    start_ms = median_ms("pass")
    return {"cli.python_start_ms": start_ms,
            "cli.import_ms": median_ms("import ovmrbac.cli") - start_ms}
