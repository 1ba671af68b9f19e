"""Spans around calls into the library's public functions, and the
per-layer metrics derived from them.

Instrumentation happens from outside ``src/``: each wrapped function is
replaced by a recording wrapper under every name that refers to it, in every
module of the package. ``session``, ``cli`` and ``model_io`` import several
functions by name, so rebinding only the defining module would leave their
calls untimed.

A span is ``[name, start_ns, end_ns, parent_index, tag]``. Spans stay in
memory while the workload runs and are written out once at the end. A
span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import statistics
import weakref
from contextlib import contextmanager
from time import perf_counter_ns

import ovmrbac
from ovmrbac import cli, fixture, model, model_io, rbac, session

PACKAGE_MODULES = (ovmrbac, rbac, model, session, model_io, cli, fixture)

MUTATIONS = (
    "add_man_vp", "add_opt_vp", "remove_man_vp", "remove_opt_vp",
    "add_variant", "remove_variant", "add_dependency", "remove_dependency",
    "add_alt_group", "remove_alt_group", "add_constraint", "remove_constraint",
)

# (defining module, function name) -> span name; several functions may share
# one span name, which makes them one layer metric.
WRAPPED: dict[tuple[object, str], str] = {
    (rbac, "check_access"): "rbac.check_access",
    (rbac, "category_members"): "rbac.category_members",
    (rbac, "parse_object_id"): "rbac.parse_object_id",
    (rbac, "grant_permission2"): "rbac.policy_admin",
    (rbac, "revoke_permission"): "rbac.policy_admin",
    (model, "check_structure"): "model.check_structure",
    (model, "validate_model"): "model.validate_model",
    (session, "execute"): "session.execute",
    (session, "derive_view"): "session.derive_view",
    (session, "user_view"): "session.user_view",
    (model_io, "load_model"): "model_io.load_model",
    (model_io, "save_model"): "model_io.save_model",
    (model_io, "load_policy"): "model_io.load_policy",
    (model_io, "save_policy"): "model_io.save_policy",
    (model_io, "export_dot"): "model_io.export_dot",
    (cli, "main"): "cli.main",
    **{(model, name): "model.mutate" for name in MUTATIONS},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._snapshots: dict[tuple[int, int], tuple] = {}

    def _tag(self, name: str, args: tuple, result) -> object:
        if name == "rbac.check_access":
            policy, snapshot_model = args[0], args[1]
            key = (id(policy), id(snapshot_model))
            seen = self._snapshots.get(key)
            reused = (seen is not None and seen[0]() is policy
                      and seen[1]() is snapshot_model)
            if not reused:
                self._snapshots[key] = (weakref.ref(policy), weakref.ref(snapshot_model))
            return (result is rbac.Decision.ALLOW, reused)
        if name == "session.execute":
            return result.status.value
        return None

    def wrap(self, name: str, fn):
        spans, stack, tag = self.spans, self._stack, self._tag

        def traced(*args, **kwargs):
            record = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            record[4] = tag(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    @contextmanager
    def installed(self):
        """Rebind every wrapped function under all its names; undo on exit."""
        undo = []
        for (home, attr), name in WRAPPED.items():
            original = getattr(home, attr)
            wrapper = self.wrap(name, original)
            for module in PACKAGE_MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
        try:
            yield self
        finally:
            for module, key, original in reversed(undo):
                setattr(module, key, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts, self times, medians and ratios from one trace."""
    child_ns = [0] * len(spans)
    in_decision = [False] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            in_decision[i] = (spans[parent][0] == "rbac.check_access"
                              or in_decision[parent])
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    durations: dict[str, list[int]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns[i])
        durations.setdefault(name, []).append(end - start)

    def n(name):
        return calls.get(name, 0)

    def self_ms(name):
        return self_ns.get(name, 0) / 1e6

    def p50_us(name):
        return _median(durations.get(name, [])) / 1e3

    def share(count, base):
        return count / base if base else 0.0

    decisions = [s[4] for s in spans if s[0] == "rbac.check_access"]
    outcomes = [s[4] for s in spans if s[0] == "session.execute"]
    members_in_decisions = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "rbac.category_members" and in_decision[i]
    )
    out = {
        "rbac.check_access.calls": n("rbac.check_access"),
        "rbac.check_access.self_ms": self_ms("rbac.check_access"),
        "rbac.check_access.p50_us": p50_us("rbac.check_access"),
        "rbac.check_access.allow_ratio": share(sum(1 for d in decisions if d[0]), len(decisions)),
        "rbac.category_members.calls": n("rbac.category_members"),
        "rbac.category_members.self_ms": self_ms("rbac.category_members"),
        "rbac.category_members.per_decision": share(members_in_decisions, len(decisions)),
        "rbac.snapshot_reuse_ratio": share(sum(1 for d in decisions if d[1]), len(decisions)),
        "rbac.parse_object_id.calls": n("rbac.parse_object_id"),
        "rbac.parse_object_id.self_ms": self_ms("rbac.parse_object_id"),
        "rbac.policy_admin.self_ms": self_ms("rbac.policy_admin"),
        "model.mutate.calls": n("model.mutate"),
        "model.mutate.self_ms": self_ms("model.mutate"),
        "model.mutate.p50_us": p50_us("model.mutate"),
        "model.check_structure.calls": n("model.check_structure"),
        "model.check_structure.self_ms": self_ms("model.check_structure"),
        "model.check_structure.p50_us": p50_us("model.check_structure"),
        "model.validate_model.self_ms": self_ms("model.validate_model"),
        "session.execute.calls": n("session.execute"),
        "session.execute.self_ms": self_ms("session.execute"),
        "session.derive_view.calls": n("session.derive_view"),
        "session.derive_view.self_ms": self_ms("session.derive_view"),
        "session.derive_view.p50_us": p50_us("session.derive_view"),
        "session.user_view.self_ms": self_ms("session.user_view"),
        "model_io.load_model.p50_us": p50_us("model_io.load_model"),
        "cli.main.self_ms": self_ms("cli.main"),
    }
    for status in ("applied", "denied", "rejected"):
        out[f"session.execute.{status}_ratio"] = share(
            sum(1 for s in outcomes if s == status), len(outcomes)
        )
    for fn in ("load_model", "save_model", "load_policy", "save_policy", "export_dot"):
        out[f"model_io.{fn}.self_ms"] = self_ms(f"model_io.{fn}")
    return out
