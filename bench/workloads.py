"""The three closed-loop workloads, each with one client.

A workload object is built from the run's seed, sets itself up, and then
serves ``step()`` calls: each step picks one operation (untimed), runs it
(timed), and checks the result (untimed). ``step`` returns the timed
nanoseconds. ``finish`` runs the end-of-run checks. Every failed check
counts one failure; nothing is retried.

Operation mixes are drawn in shuffled blocks of fixed composition, so every
seed runs the same proportions of each kind of operation and only the order
and the arguments change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from time import perf_counter_ns

import ovmrbac as o
from ovmrbac import cli

import gen
import oracle

MAN = gen.MAN
OPT = gen.OPT
REQUIRES = gen.REQUIRES
EXCLUDES = gen.EXCLUDES
V = gen.V
VP = gen.VP
CATALOG = o.OPERATION_CATALOG
DENIED = o.OutcomeStatus.DENIED
APPLIED = o.OutcomeStatus.APPLIED
REJECTED = o.OutcomeStatus.REJECTED


class Bag:
    """A set with O(1) seeded random choice; order depends only on history."""

    def __init__(self, items=()):
        self.items: list = []
        self.index: dict = {}
        for item in items:
            self.add(item)

    def add(self, item) -> None:
        if item not in self.index:
            self.index[item] = len(self.items)
            self.items.append(item)

    def discard(self, item) -> None:
        i = self.index.pop(item, None)
        if i is None:
            return
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.index[last] = i

    def choice(self, rng: random.Random):
        return self.items[rng.randrange(len(self.items))]

    def __len__(self) -> int:
        return len(self.items)


def block_schedule(rng: random.Random, composition: dict[str, int]):
    """Endless stream of operation kinds, shuffled within fixed blocks."""
    block = [kind for kind, count in sorted(composition.items()) for _ in range(count)]
    while True:
        rng.shuffle(block)
        yield from block


class Checked:
    """Failure bookkeeping: at most one failure per attempted operation."""

    def _start(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._failed_at = -1

    def _fail(self, message: str) -> None:
        if self._failed_at != self.attempted:
            self.failed += 1
            self._failed_at = self.attempted
        if len(self.errors) < 5:
            self.errors.append(message)

    def _final_fail(self, message: str) -> None:
        """A failed end-of-run check; counts as one failed operation."""
        self._failed_at = -1
        self._fail(message)


def timed(fn, *args):
    start = perf_counter_ns()
    result = fn(*args)
    return result, perf_counter_ns() - start


# --- edit-mix ------------------------------------------------------------------

EDITOR = "editor"

# The editor may do everything except write mandatory dependencies and
# touch variation-point-to-variation-point constraints. Those requests are
# denied, after a scan of every grant of every role the editor holds.
CONSTRAINT_CATEGORIES = tuple(
    (kind, a, b) for kind in (REQUIRES, EXCLUDES) for a in (V, VP) for b in (V, VP)
)

EDITOR_GRANTS = (
    ("edit-elements", "add_Variation_Point", ("set:MAN_VP", "set:OPT_VP")),
    ("edit-elements", "remove_Variation_Point", ("set:MAN_VP", "set:OPT_VP")),
    ("edit-elements", "add_Variant", ("set:VARIANT",)),
    ("edit-elements", "remove_Variant", ("set:VARIANT",)),
    ("edit-relations", "writeOptDep", ("set:OPT",)),
    ("edit-relations", "add_AltGroup", ("set:ALTGROUP",)),
    ("edit-relations", "remove_AltGroup", ("set:ALTGROUP",)),
) + tuple(
    ("edit-relations", op, tuple(f"set:{k}_{e}" for k in ("REQUIRES", "EXCLUDES")
                                  for e in ("V_V", "V_VP", "VP_V")))
    for op in ("add_Constraint", "remove_Constraint")
)


class Shadow:
    """The client's own record of the model, updated from applied outcomes.

    It decides which requests are valid (so the expected outcome is known
    before the call) and is compared with the final model.
    """

    def __init__(self, model: o.Model):
        self.vps = {p.name: p.kind for p in model.variation_points}
        self.variants = Bag(sorted(v.name for v in model.variants))
        self.binding: dict[str, tuple] = {}
        for d in model.dependencies:
            self.binding[d.variant] = ("dep", d.vp, d.kind)
        self.groups: dict[str, tuple] = {}
        for g in model.alt_groups:
            self.groups[g.vp] = (g.variants, g.min_card, g.max_card)
            for member in g.variants:
                self.binding[member] = ("grp", g.vp)
        self.deps = Bag(sorted((v, b[1]) for v, b in self.binding.items() if b[0] == "dep"))
        self.group_vps = Bag(sorted(self.groups))
        self.all_vps = Bag(sorted(self.vps))
        self.claimed: set[tuple] = set()
        # Ordered constraints, both directions of an excludes pair included,
        # filed by access category (kind, source universe, target universe).
        self.constraints = {category: Bag() for category in CONSTRAINT_CATEGORIES}
        self.use: dict[tuple, int] = {}
        for c in sorted(model.constraints, key=o.Constraint.sort_key):
            self._link(c.kind, (c.source.universe, c.source.name),
                       (c.target.universe, c.target.name))
        for variant, b in self.binding.items():
            if b[0] == "dep":
                self._touch((VP, b[1]), 1)
        for vp in self.groups:
            self._touch((VP, vp), 1)
        self.free = Bag(v for v in self.variants.items if v not in self.binding)
        self.counter = 0

    def _touch(self, end, delta: int) -> None:
        self.use[end] = self.use.get(end, 0) + delta

    def _link(self, kind, a, b, delta: int = 1) -> None:
        bag = self.constraints[(kind, a[0], b[0])]
        if delta > 0:
            bag.add((kind, a, b))
            self.claimed.add((a, b))
        else:
            bag.discard((kind, a, b))
            self.claimed.discard((a, b))
        self._touch(a, delta)
        self._touch(b, delta)

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"x{stem}{self.counter}"

    def apply(self, op: str, args: tuple) -> None:
        if op in ("addManVP", "addOptVP"):
            self.vps[args[0]] = MAN if op == "addManVP" else OPT
            self.all_vps.add(args[0])
        elif op in ("removeManVP", "removeOptVP"):
            del self.vps[args[0]]
            self.all_vps.discard(args[0])
        elif op == "addVariant":
            self.variants.add(args[0])
            self.free.add(args[0])
        elif op == "removeVariant":
            self.variants.discard(args[0])
            self.free.discard(args[0])
        elif op == "addDependency":
            variant, vp, kind = args
            self.binding[variant] = ("dep", vp, kind)
            self.deps.add((variant, vp))
            self.free.discard(variant)
            self._touch((VP, vp), 1)
        elif op == "removeDependency":
            variant, vp = args
            del self.binding[variant]
            self.deps.discard((variant, vp))
            self.free.add(variant)
            self._touch((VP, vp), -1)
        elif op == "addAltGroup":
            members, lo, hi, vp = args
            self.groups[vp] = (members, lo, hi)
            self.group_vps.add(vp)
            for member in members:
                self.binding[member] = ("grp", vp)
                self.free.discard(member)
            self._touch((VP, vp), 1)
        elif op == "removeAltGroup":
            vp = args[0]
            members = self.groups.pop(vp)[0]
            self.group_vps.discard(vp)
            for member in members:
                del self.binding[member]
                self.free.add(member)
            self._touch((VP, vp), -1)
        else:  # addConstraint, removeConstraint
            kind, a, b = args
            a, b = (a.universe, a.name), (b.universe, b.name)
            delta = 1 if op == "addConstraint" else -1
            self._link(kind, a, b, delta)
            if kind is EXCLUDES:
                self._link(kind, b, a, delta)

    def matches(self, model: o.Model) -> bool:
        pairs = {c for bag in self.constraints.values() for c in bag.items}
        return (
            {(p.name, p.kind) for p in model.variation_points} == set(self.vps.items())
            and {v.name for v in model.variants} == set(self.variants.items)
            and {(d.variant, d.vp, d.kind) for d in model.dependencies}
            == {(v, b[1], b[2]) for v, b in self.binding.items() if b[0] == "dep"}
            and {(g.vp, g.variants, g.min_card, g.max_card) for g in model.alt_groups}
            == {(vp, *spec) for vp, spec in self.groups.items()}
            and {(c.kind, (c.source.universe, c.source.name),
                  (c.target.universe, c.target.name)) for c in model.constraints}
            == pairs
        )


class EditMix(Checked):
    """One Session under a mixed policy, editing a mid-size model.

    The editor holds two category-granting edit roles and one element-heavy
    role with dangling grants. Per block of 24 steps: 14 guarded edit
    requests over all 12 request ops, 8 check_access probes by random users,
    and 2 policy edits that alternate between granting a new permission and
    revoking it again. Each element class (and each constraint category)
    adds while below its starting count and removes while above it, so the
    model size stays stationary. Every 16th step's access decision is
    checked against the expansion oracle on that step's snapshot; the
    others are checked for consistency with the request's validity.
    """

    name = "edit-mix"
    SIZE = 180
    COMPOSITION = {"vp": 2, "variant": 3, "dep": 3, "group": 2, "constraint": 4,
                   "probe": 8, "admin": 2}
    ORACLE_EVERY = 16
    WARMUP_STEPS = 200

    def __init__(self, seed: int, root: str):
        self.seed = seed

    def setup(self) -> None:
        rng = random.Random(self.seed)
        model = gen.build_model("mixed", self.SIZE, rng)
        policy = gen.build_policy(
            model, rng, category_roles=6, element_roles=6, category_grants=6,
            element_grants=20, users=12,
        )
        for role, operation, texts in EDITOR_GRANTS:
            if role not in policy.roles:
                policy = o.add_role(policy, role)
            policy = o.grant_permission2(
                policy, [o.ObjectId(t) for t in texts], operation, role
            )
        policy = o.add_user(policy, EDITOR)
        for role in sorted({g[0] for g in EDITOR_GRANTS}) + ["elem0"]:
            policy = o.assign_user(policy, EDITOR, role)
        self.session = o.Session(EDITOR, model, policy)
        self.shadow = Shadow(model)
        self.targets = self._counts()
        self.users = sorted(policy.users)
        self.roles = sorted(policy.roles)
        self.granted = {(r, p.operation, p.object.text)
                        for p, r in policy.permission_assignments}
        self.pending: list[tuple] = []
        self.rng = random.Random(self.seed * 7919 + 1)
        self.kinds = block_schedule(self.rng, self.COMPOSITION)
        self.steps = 0
        self._start()
        for _ in range(self.WARMUP_STEPS):
            self.step()

    def _counts(self) -> dict[str, int]:
        s = self.shadow
        counts = {"vp": len(s.vps), "variant": len(s.variants), "dep": len(s.deps),
                  "group": len(s.group_vps)}
        counts.update((category, len(bag)) for category, bag in s.constraints.items())
        return counts

    # request choice ------------------------------------------------------------

    def _want_add(self, kind, current: int) -> bool:
        target = self.targets[kind]
        if current != target:
            return current < target
        return current == 0 or self.rng.random() < 0.5

    def _pick(self, bag: Bag, usable, tries: int = 8):
        """A random item of ``bag`` for which ``usable`` holds, if a few draws
        find one; otherwise the last draw."""
        for _ in range(tries):
            item = bag.choice(self.rng)
            if usable(item):
                break
        return item

    def _endpoint(self, universe):
        names = self.shadow.variants if universe is V else self.shadow.all_vps
        return o.EndpointRef(universe, names.choice(self.rng))

    def _request(self, kind: str) -> tuple[str, tuple, bool]:
        """(op, args, valid): ``valid`` says whether the preconditions hold."""
        s, rng = self.shadow, self.rng
        if kind == "vp":
            if self._want_add("vp", len(s.vps)):
                return rng.choice(("addManVP", "addOptVP")), (s.fresh("VP"),), True
            name = self._pick(s.all_vps, lambda n: s.use.get((VP, n), 0) == 0)
            op = "removeManVP" if s.vps[name] is MAN else "removeOptVP"
            return op, (name,), s.use.get((VP, name), 0) == 0
        if kind == "variant":
            if self._want_add("variant", len(s.variants)):
                if rng.random() < 0.1:
                    return "addVariant", (s.variants.choice(rng),), False
                return "addVariant", (s.fresh("v"),), True

            def removable(n):
                return n not in s.binding and s.use.get((V, n), 0) == 0

            name = self._pick(s.free if len(s.free) else s.variants, removable)
            valid = removable(name)
            return "removeVariant", (name,), valid
        if kind == "dep":
            if self._want_add("dep", len(s.deps)):
                variant = s.variants.choice(rng)
                if len(s.free) and rng.random() < 0.9:
                    variant = s.free.choice(rng)
                args = (variant, s.all_vps.choice(rng), rng.choice((MAN, OPT)))
                return "addDependency", args, variant not in s.binding
            return "removeDependency", s.deps.choice(rng), True
        if kind == "group":
            if self._want_add("group", len(s.group_vps)):
                vp = s.all_vps.choice(rng)
                size = rng.randint(2, 3)
                if len(s.free) < size:
                    members = frozenset(s.variants.choice(rng) for _ in range(size))
                else:
                    members = frozenset(s.free.choice(rng) for _ in range(size))
                hi = rng.randint(1, len(members))
                lo = hi + 1 if rng.random() < 0.05 else rng.randint(0, hi)
                valid = (len(members) >= 2 and lo <= hi and vp not in s.groups
                         and all(m not in s.binding for m in members))
                return "addAltGroup", (members, lo, hi, vp), valid
            return "removeAltGroup", (s.group_vps.choice(rng),), True
        # Constraint requests spread evenly over the eight access categories,
        # so the editor's six constraint grants are each the match equally
        # often, whatever order the policy's frozenset iterates them in.
        category = rng.choice(CONSTRAINT_CATEGORIES)
        ckind, ua, ub = category
        bag = s.constraints[category]
        if self._want_add(category, len(bag)):
            a, b = self._endpoint(ua), self._endpoint(ub)
            ea, eb = (a.universe, a.name), (b.universe, b.name)
            valid = ea != eb and (ea, eb) not in s.claimed
            if ckind is EXCLUDES:
                valid = valid and (eb, ea) not in s.claimed
            return "addConstraint", (ckind, a, b), valid
        ckind, ea, eb = bag.choice(rng)
        return "removeConstraint", (ckind, o.EndpointRef(*ea), o.EndpointRef(*eb)), True

    def _object_text(self) -> str:
        s, rng = self.shadow, self.rng
        roll = rng.random()
        if roll < 0.15:
            return f"set:{rng.choice(sorted(gen.CATEGORY_OPS))}"
        if roll < 0.3:
            return f"variant:ghost {rng.randrange(1000)}"
        if roll < 0.5:
            return f"variant:{s.variants.choice(rng)}"
        if roll < 0.65:
            return f"vp:{s.all_vps.choice(rng)}"
        if roll < 0.8 and len(s.deps):
            variant, vp = s.deps.choice(rng)
            return f"dep:{variant}->{vp}"
        if roll < 0.87 and len(s.group_vps):
            return f"altgroup:{s.group_vps.choice(rng)}"
        bag = s.constraints[rng.choice(CONSTRAINT_CATEGORIES)]
        if len(bag):
            kind, a, b = bag.choice(rng)
            return (f"constraint:{kind.value}:{a[0].value}:{a[1]}"
                    f":{b[0].value}:{b[1]}")
        return f"vp:{s.all_vps.choice(rng)}"

    # steps -------------------------------------------------------------------------

    def step(self) -> int:
        kind = next(self.kinds)
        self.steps += 1
        self.attempted += 1
        check = self.steps % self.ORACLE_EVERY == 0
        try:
            if kind == "probe":
                return self._probe(check)
            if kind == "admin":
                return self._revoke() if self.pending else self._grant()
            return self._edit(kind, check)
        except Exception as exc:  # a traceback from the library is a failure
            self._fail(f"{kind}: {type(exc).__name__}: {exc}")
            return 0

    def _edit(self, kind: str, check: bool) -> int:
        op, args, valid = self._request(kind)
        request = o.OpRequest(op, args)
        session = self.session
        before = session.model
        outcome, ns = timed(o.execute, session, request)
        # The client consumes the session log so that a long run does not
        # keep every snapshot alive through it.
        entry = session.log.pop() if len(session.log) == 1 else None
        if entry is None or entry.outcome is not outcome:
            self._fail(f"{op}: log does not hold exactly this outcome")
            session.log.clear()
        status = outcome.status
        if check:
            rbac_op, target = oracle.request_target(op, args, before)
            allowed = oracle.Decisions(session.policy, before).allows(
                EDITOR, rbac_op, target)
            expected = DENIED if not allowed else APPLIED if valid else REJECTED
            if status is not expected:
                self._fail(f"{op}{args}: {status.value}, expected {expected.value}")
                return ns
        elif status is not DENIED and status is not (APPLIED if valid else REJECTED):
            self._fail(f"{op}{args}: {status.value} but valid={valid}")
            return ns
        if status is APPLIED:
            if outcome.model is not session.model or before is session.model:
                self._fail(f"{op}: applied outcome did not advance the session")
            self.shadow.apply(op, request.args)
        elif session.model is not before:
            self._fail(f"{op}: model changed on {status.value}")
        elif status is REJECTED and not isinstance(outcome.error, o.OvmRbacError):
            self._fail(f"{op}: rejected without an OvmRbacError")
        return ns

    def _probe(self, check: bool) -> int:
        rng, session = self.rng, self.session
        user = rng.choice(self.users)
        operation = rng.choice(CATALOG)
        text = self._object_text()
        obj = o.ObjectId(text)
        decision, ns = timed(o.check_access, session.policy, session.model, user,
                             operation, obj)
        if check:
            allowed = oracle.Decisions(session.policy, session.model).allows(
                user, operation, text)
            if (decision is o.Decision.ALLOW) != allowed:
                self._fail(f"check_access({user}, {operation}, {text}) = {decision}")
        return ns

    def _grant(self) -> int:
        rng = self.rng
        while True:
            role = rng.choice(self.roles)
            operation = rng.choice(CATALOG)
            text = self._object_text()
            if (role, operation, text) not in self.granted:
                break
        before = self.session.policy
        policy, ns = timed(o.grant_permission2, before, [o.ObjectId(text)],
                           operation, role)
        added = {(r, p.operation, p.object.text) for p, r in policy.permission_assignments}
        if len(added) != len(before.permission_assignments) + 1 or (
            role, operation, text) not in added:
            self._fail(f"grant({role}, {operation}, {text}) did not add exactly one grant")
        self.session.policy = policy
        self.granted.add((role, operation, text))
        self.pending.append((role, operation, text))
        return ns

    def _revoke(self) -> int:
        role, operation, text = self.pending.pop(0)
        before = self.session.policy
        policy, ns = timed(o.revoke_permission, before, o.ObjectId(text), operation, role)
        if len(policy.permission_assignments) != len(before.permission_assignments) - 1:
            self._fail(f"revoke({role}, {operation}, {text}) did not remove one grant")
        self.session.policy = policy
        self.granted.discard((role, operation, text))
        return ns

    def finish(self) -> None:
        final = self.session.model
        broken = oracle.broken_structural_predicates(final)
        if broken:
            self._final_fail(f"final model breaks {broken}")
        if not self.shadow.matches(final):
            self._final_fail("final model differs from the client's record of applied edits")


# --- view-read --------------------------------------------------------------------

class ViewRead(Checked):
    """Read-only steps on one static, larger snapshot.

    Per block of 10 steps: 4 role views (any, read or exact filter) each
    exported to DOT, 2 user views over a user's three roles, and 4 rows of
    12 access decisions. Every view is compared with an independent
    projection and every decision with the expansion oracle.
    """

    name = "view-read"
    SIZE = 300
    COMPOSITION = {"role_view": 4, "user_view": 2, "decisions": 4}
    ROW = 12
    WARMUP_STEPS = 20

    def __init__(self, seed: int, root: str):
        self.seed = seed

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.model = gen.build_model("mixed", self.SIZE, rng)
        self.policy = gen.build_policy(
            self.model, rng, category_roles=12, element_roles=12,
            category_grants=6, element_grants=60, users=24,
        )
        self.roles = sorted({r for _, r in self.policy.permission_assignments})
        self.users = sorted(self.policy.users)
        self.role_ops = {}
        for perm, role in self.policy.permission_assignments:
            self.role_ops.setdefault(role, set()).add(perm.operation)
        self.role_ops = {r: sorted(ops) for r, ops in self.role_ops.items()}
        self.user_roles = {}
        for user, role in self.policy.user_assignments:
            self.user_roles.setdefault(user, set()).add(role)
        self.texts = gen.element_texts(self.model)
        self.decisions = oracle.Decisions(self.policy, self.model)
        self.expected: dict[tuple, tuple] = {}
        self.rng = random.Random(self.seed * 7919 + 2)
        self.kinds = block_schedule(self.rng, self.COMPOSITION)
        self._start()
        for _ in range(self.WARMUP_STEPS):
            self.step()


    def _filter(self, role_ops: list[str]):
        roll = self.rng.random()
        if roll < 0.4:
            return ("any", None), o.ANY_OPERATION
        if roll < 0.7:
            return ("read", None), o.READ_LIKE
        op = self.rng.choice(role_ops)
        return ("exact", op), o.exact_operation(op)

    def _check_view(self, roles, key, view) -> None:
        cache_key = (tuple(sorted(roles)), key)
        if cache_key not in self.expected:
            self.expected[cache_key] = oracle.expected_view(
                self.policy, self.model, roles, *key)
        ids, stubs = self.expected[cache_key]
        if view.element_ids() != ids or view.vp_stubs != stubs:
            self._fail(f"view of {sorted(roles)} with {key} differs from the projection")

    def step(self) -> int:
        kind = next(self.kinds)
        self.attempted += 1
        rng = self.rng
        try:
            if kind == "role_view":
                role = rng.choice(self.roles)
                key, op_filter = self._filter(self.role_ops[role])
                start = perf_counter_ns()
                view = o.derive_view(self.policy, self.model, role, op_filter)
                dot = o.export_dot(self.model, view)
                ns = perf_counter_ns() - start
                self._check_view([role], key, view)
                nodes = dot.count("shape=triangle") + dot.count("shape=box")
                if nodes != len(view.variation_points) + len(view.vp_stubs) + len(view.variants):
                    self._fail(f"DOT of {role}'s view has {nodes} nodes")
                return ns
            if kind == "user_view":
                user = rng.choice(self.users)
                key, op_filter = self._filter(list(CATALOG))
                view, ns = timed(o.user_view, self.policy, self.model, user, op_filter)
                self._check_view(self.user_roles[user], key, view)
                return ns
            user = rng.choice(self.users)
            row = [(rng.choice(CATALOG), rng.choice(self.texts)) for _ in range(self.ROW)]
            objects = [(op, o.ObjectId(text)) for op, text in row]
            policy, model, check = self.policy, self.model, o.check_access
            start = perf_counter_ns()
            got = [check(policy, model, user, op, obj) for op, obj in objects]
            ns = perf_counter_ns() - start
            for (op, text), decision in zip(row, got):
                if (decision is o.Decision.ALLOW) != self.decisions.allows(user, op, text):
                    self._fail(f"check_access({user}, {op}, {text}) = {decision}")
            return ns
        except Exception as exc:  # a traceback from the library is a failure
            self._fail(f"{kind}: {type(exc).__name__}: {exc}")
            return 0

    def finish(self) -> None:
        pass


# --- cli-docs ---------------------------------------------------------------------

FIXTURE_UNITS = ("validate", "check", "view", "render", "apply", "write")
LARGE_UNITS = ("validate", "check", "render", "apply", "view", "write", "check")
WRITES = ("apply", "grant", "assign")
# The user of each document set who may add and remove mandatory
# variation points, so an apply pair always commits and then undoes.
CURATOR = {"fixture": "Alice", "large": "curator"}


def run_cli(argv: list[str], env: dict, in_process: bool) -> tuple[int, str, int]:
    """Run one ``ovmrbac`` command; (exit code, stdout, nanoseconds).

    In-process runs call ``ovmrbac.cli.main`` with stdout and stderr
    captured; otherwise the command is a child interpreter.
    """
    if in_process:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter_ns()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue(), perf_counter_ns() - start
    start = perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, "-m", "ovmrbac.cli", *argv], env=env,
        capture_output=True, text=True, timeout=120,
    )
    ns = perf_counter_ns() - start
    if "Traceback" in proc.stderr:
        raise RuntimeError(proc.stderr.strip().splitlines()[-1])
    return proc.returncode, proc.stdout, ns


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except FileNotFoundError:
        return ""


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _written(argv, model_path: str, policy_path: str, dot_path: str) -> tuple[str, ...]:
    """The files a command may have written, as text."""
    if argv[0] in WRITES:
        return _read(model_path), _read(policy_path)
    if argv[0] == "view":
        return (_read(dot_path),)
    return ()


def _canonical_ids(ids) -> set[str]:
    """Element ids with each excludes pair spelled in one direction."""
    out = set()
    for text in ids:
        if text.startswith("constraint:excludes:"):
            _, _, u1, n1, u2, n2 = text.split(":")
            a, b = sorted(((u1, n1), (u2, n2)))
            text = f"constraint:excludes:{a[0]}:{a[1]}:{b[0]}:{b[1]}"
        out.add(text)
    return out


class CliDocs(Checked):
    """A script of ``ovmrbac`` commands on the fixture and on a large model.

    Per block: 7 fixture commands (validate, check, view --dot, render, an
    apply pair and one grant or assign) and 3 large-document units taken in
    turn from a fixed rotation. Fixture commands are bound by interpreter
    start-up and large ones by loading, so with about a third of commands
    on the large documents the median falls among fixture commands and p90
    among large ones, away from the gap between them.

    Writes leave the files as they found them: an apply pair adds and then
    removes one variation point, and a grant or assign is followed by
    restoring the policy's bytes (untimed). Every command's exit code,
    stdout and written files are compared with the same command run
    in-process on a copy of the same files; access decisions and views are
    also compared with the independent oracles.
    """

    name = "cli-docs"
    LARGE_SIZE = 500
    WARMUP_UNITS = 3

    def __init__(self, seed: int, root: str, in_process: bool = False):
        self.seed = seed
        self.in_process = in_process
        self.work = os.path.join(root, "bench", "_work", "cli")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def setup(self) -> None:
        rng = random.Random(self.seed)
        shutil.rmtree(self.work, ignore_errors=True)
        fixture_dir = os.path.join(self.work, "fixture")
        large_dir = os.path.join(self.work, "large")
        os.makedirs(large_dir)
        run_cli(["init-example", fixture_dir], self.env, self.in_process)
        model = gen.build_model("dense", self.LARGE_SIZE, rng)
        policy = gen.build_policy(
            model, rng, category_roles=4, element_roles=16, category_grants=6,
            element_grants=120, users=20,
        )
        policy = o.add_user(o.add_role(policy, CURATOR["large"]), CURATOR["large"])
        for operation in ("add_Variation_Point", "remove_Variation_Point"):
            policy = o.grant_permission2(
                policy, [o.ObjectId("set:MAN_VP")], operation, CURATOR["large"])
        policy = o.assign_user(policy, CURATOR["large"], CURATOR["large"])
        _write(os.path.join(large_dir, "model.json"), o.save_model(model))
        _write(os.path.join(large_dir, "policy.json"), o.save_policy(policy))
        self.sets = {"fixture": self._doc_set(fixture_dir), "large": self._doc_set(large_dir)}
        self.rng = random.Random(self.seed * 7919 + 3)
        self.script = self._script()
        self.results: dict[tuple, list] = {}
        self.latencies: list[int] = []
        self._start()
        for _ in range(self.WARMUP_UNITS):
            self.step()
        self.latencies.clear()

    def _doc_set(self, directory: str) -> dict:
        model_path = os.path.join(directory, "model.json")
        policy_path = os.path.join(directory, "policy.json")
        model_text, policy_text = _read(model_path), _read(policy_path)
        model, policy = o.load_model(model_text), o.load_policy(policy_text)
        assigned = set(policy.user_assignments)
        users = sorted(policy.users)
        roles = sorted({r for _, r in policy.permission_assignments})
        return {
            "model_path": model_path, "policy_path": policy_path,
            "dot": os.path.join(directory, "view.dot"),
            "model_text": model_text, "policy_text": policy_text,
            "model": model, "policy": policy, "users": users, "roles": roles,
            "texts": gen.element_texts(model),
            "unassigned": [(u, r) for u in users for r in roles if (u, r) not in assigned],
            "decisions": oracle.Decisions(policy, model),
        }

    # the command script -------------------------------------------------------------

    def _script(self):
        rng = self.rng
        turn = 0
        while True:
            units = [("fixture", u) for u in FIXTURE_UNITS]
            for _ in range(3):
                units.append(("large", LARGE_UNITS[turn % len(LARGE_UNITS)]))
                turn += 1
            rng.shuffle(units)
            for doc, unit in units:
                yield doc, self._unit(doc, unit)

    def _unit(self, doc: str, unit: str) -> tuple[tuple[str, ...], ...]:
        """The argv lists of one unit: one command, or an apply pair."""
        rng, s = self.rng, self.sets[doc]
        model_path, policy_path = s["model_path"], s["policy_path"]
        if unit in ("validate", "render"):
            return ((unit, model_path),)
        if unit == "check":
            return (("check", model_path, policy_path, "--user", rng.choice(s["users"]),
                     "--op", rng.choice(CATALOG), "--object", rng.choice(s["texts"])),)
        if unit == "view":
            flt = rng.choice(("any", "read", f"op:{rng.choice(CATALOG)}"))
            return (("view", model_path, policy_path, "--role", rng.choice(s["roles"]),
                     "--filter", flt, "--dot", s["dot"]),)
        if unit == "apply":
            name = f"bench VP {rng.randrange(3)}"
            head = ("apply", model_path, policy_path, "--user", CURATOR[doc], "--op")
            return (head + ("addManVP", name), head + ("removeManVP", name))
        if rng.random() < 0.5:
            return (("grant", policy_path, "--objects", f"variant:bench {rng.randrange(3)}",
                     "--op", rng.choice(CATALOG), "--role", rng.choice(s["roles"])),)
        user, role = s["unassigned"][rng.randrange(len(s["unassigned"]))]
        return (("assign", policy_path, "--user", user, "--role", role),)

    # running -------------------------------------------------------------------------

    def step(self) -> int:
        """Run one unit; returns its time, and records each command's latency."""
        doc, argvs = next(self.script)
        s = self.sets[doc]
        total = 0
        outputs = []
        for argv in argvs:
            self.attempted += 1
            try:
                code, stdout, ns = run_cli(list(argv), self.env, self.in_process)
            except Exception as exc:  # a traceback or a hung command is a failure
                self._fail(f"{argv[0]} on {doc}: {type(exc).__name__}: {exc}")
                self._restore(doc)
                return total
            self.latencies.append(ns)
            total += ns
            outputs.append((code, stdout, _written(argv, s["model_path"],
                                                    s["policy_path"], s["dot"])))
        self.results.setdefault((doc, argvs), []).append(tuple(outputs))
        if argvs[0][0] in ("grant", "assign"):
            self._restore(doc)
        return total

    def _restore(self, doc: str) -> None:
        s = self.sets[doc]
        _write(s["model_path"], s["model_text"])
        _write(s["policy_path"], s["policy_text"])

    # checking ----------------------------------------------------------------------

    def _expected(self, doc: str, argvs: tuple) -> tuple:
        """The unit's outputs when run in-process on a copy of the starting files."""
        s = self.sets[doc]
        copy = os.path.join(self.work, "expect")
        shutil.rmtree(copy, ignore_errors=True)
        os.makedirs(copy)
        paths = {s["model_path"]: os.path.join(copy, "model.json"),
                 s["policy_path"]: os.path.join(copy, "policy.json"),
                 s["dot"]: os.path.join(copy, "view.dot")}
        _write(paths[s["model_path"]], s["model_text"])
        _write(paths[s["policy_path"]], s["policy_text"])
        outputs = []
        for argv in argvs:
            code, stdout, _ = run_cli([paths.get(a, a) for a in argv], self.env, True)
            outputs.append((code, stdout, _written(argv, *paths.values())))
        return tuple(outputs)

    def _oracle_problem(self, doc: str, argv: tuple, code: int, stdout: str) -> str | None:
        """How the command's result disagrees with the oracles, if it does."""
        s = self.sets[doc]
        if argv[0] == "check":
            user, op, text = argv[4], argv[6], argv[8]
            allowed = s["decisions"].allows(user, op, text)
            if (code, stdout) != ((0, "Allow\n") if allowed else (1, "Deny\n")):
                return f"check {user} {op} {text} on {doc}: exit {code}"
        elif argv[0] == "view" and code == 0:
            role, flt = argv[4], argv[6]
            mode, exact = ("exact", flt[3:]) if flt.startswith("op:") else (flt, None)
            ids, stubs = oracle.expected_view(s["policy"], s["model"], [role], mode, exact)
            view = json.loads(stdout)["view"]
            got = {f"vp:{p['name']}" for p in view["variation_points"]}
            got |= {f"variant:{v}" for v in view["variants"]}
            got |= {f"dep:{d['variant']}->{d['vp']}" for d in view["dependencies"]}
            got |= {f"altgroup:{g['vp']}" for g in view["alt_groups"]}
            got |= {f"constraint:{c['kind']}:{c['from']['universe']}:{c['from']['name']}"
                    f":{c['to']['universe']}:{c['to']['name']}" for c in view["constraints"]}
            if (_canonical_ids(got) != _canonical_ids(ids)
                    or set(view["vp_stubs"]) != stubs):
                return f"view of {role} ({flt}) on {doc} differs from the projection"
        elif argv[0] == "apply" and code != 0:
            return f"{argv[-2]} by the curator on {doc}: exit {code}"
        return None

    def finish(self) -> None:
        for (doc, argvs), runs in self.results.items():
            expected = self._expected(doc, argvs)
            for argv, (code, stdout, _) in zip(argvs, expected):
                problem = self._oracle_problem(doc, argv, code, stdout)
                if problem:
                    self._final_fail(problem)
            for run in runs:
                if run != expected:
                    self._final_fail(f"{argvs[0][0]} on {doc} differs from the in-process result")
        for doc, s in self.sets.items():
            model_text, policy_text = _read(s["model_path"]), _read(s["policy_path"])
            if (model_text, policy_text) != (s["model_text"], s["policy_text"]):
                self._final_fail(f"{doc} documents did not return to their starting bytes")
            if o.save_model(o.load_model(model_text)) != model_text:
                self._final_fail(f"{doc} model: save(load(text)) is not byte-identical")
            if o.save_policy(o.load_policy(policy_text)) != policy_text:
                self._final_fail(f"{doc} policy: save(load(text)) is not byte-identical")
        if oracle.broken_structural_predicates(self.sets["large"]["model"]):
            self._final_fail("large model breaks a structural predicate")


WORKLOADS = {w.name: w for w in (EditMix, ViewRead, CliDocs)}
