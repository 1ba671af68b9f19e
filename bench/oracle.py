"""Reference answers computed without the code under test.

Each function restates a documented rule from first principles over the
raw shapes of models and policies (their frozensets of plain values), the
same way the test suite's oracles do. Nothing here calls the library's
decision, view or validation code, so a wrong answer from the library shows
up as a disagreement. The structural predicates come read-only from the
test suite's own oracle module.
"""

from __future__ import annotations

import os
import sys

import ovmrbac as o

from gen import constraint_text, endpoint_text

sys.path.insert(0, os.path.join(os.getcwd(), "tests"))
from tests_support import broken_structural_predicates  # noqa: E402,F401

READ_LIKE = frozenset({"read", "readAltGroup", "readOptDep", "readManDep"})
CREATION_OPS = frozenset({"add_AltGroup", "add_Constraint"})
_TAG = {"variant": "V", "vp": "VP"}


def _constraint_category(kind: str, source_universe: str, target_universe: str) -> str:
    return f"{kind.upper()}_{_TAG[source_universe]}_{_TAG[target_universe]}"


def category_table(model: o.Model) -> dict[str, set[str]]:
    """Category name -> element ids it contains in this model."""
    table: dict[str, set[str]] = {
        "MAN_VP": set(), "OPT_VP": set(), "VARIANT": set(), "MAN": set(),
        "OPT": set(), "ALTGROUP": set(),
    }
    for kind in ("requires", "excludes"):
        for a in ("variant", "vp"):
            for b in ("variant", "vp"):
                table[_constraint_category(kind, a, b)] = set()
    for p in model.variation_points:
        table["MAN_VP" if p.kind.value == "mandatory" else "OPT_VP"].add(f"vp:{p.name}")
    for v in model.variants:
        table["VARIANT"].add(f"variant:{v.name}")
    for d in model.dependencies:
        table["MAN" if d.kind.value == "mandatory" else "OPT"].add(f"dep:{d.variant}->{d.vp}")
    for g in model.alt_groups:
        table["ALTGROUP"].add(f"altgroup:{g.vp}")
    for c in model.constraints:
        category = _constraint_category(
            c.kind.value, c.source.universe.value, c.target.universe.value
        )
        table[category].add(constraint_text(c))
    table["OBJECTS"] = set().union(*table.values())
    return table


def _syntactic_category(text: str) -> str | None:
    prefix, _, rest = text.partition(":")
    if prefix == "variant":
        return "VARIANT"
    if prefix == "altgroup":
        return "ALTGROUP"
    if prefix == "constraint":
        kind, u1, _, u2, _ = rest.split(":")
        return _constraint_category(kind, u1, u2)
    return None


class Decisions:
    """Access decisions for one (policy, model) snapshot.

    Allow iff one of the user's roles holds the operation on an object that
    equals the request, is ``set:OBJECTS``, or is a category whose current
    members contain the requested element id; for creation operations a
    category also covers ids whose spelling belongs to it.
    """

    def __init__(self, policy: o.Policy, model: o.Model):
        self.table = category_table(model)
        self.roles: dict[str, set[str]] = {}
        for user, role in policy.user_assignments:
            self.roles.setdefault(user, set()).add(role)
        self.grants: dict[tuple[str, str], set[str]] = {}
        for perm, role in policy.permission_assignments:
            self.grants.setdefault((role, perm.operation), set()).add(perm.object.text)

    def allows(self, user: str, operation: str, text: str) -> bool:
        is_element = not text.startswith("set:")
        for role in self.roles.get(user, ()):
            for granted in self.grants.get((role, operation), ()):
                if granted == text or granted == "set:OBJECTS":
                    return True
                if not granted.startswith("set:") or not is_element:
                    continue
                category = granted[4:]
                if text in self.table[category]:
                    return True
                if operation in CREATION_OPS and _syntactic_category(text) == category:
                    return True
        return False


def request_target(op: str, args: tuple, model: o.Model) -> tuple[str, str]:
    """The (operation id, object id) an edit request is checked against."""
    if op == "addManVP":
        return "add_Variation_Point", "set:MAN_VP"
    if op == "addOptVP":
        return "add_Variation_Point", "set:OPT_VP"
    if op in ("removeManVP", "removeOptVP"):
        return "remove_Variation_Point", f"vp:{args[0]}"
    if op == "addVariant":
        return "add_Variant", "set:VARIANT"
    if op == "removeVariant":
        return "remove_Variant", f"variant:{args[0]}"
    if op == "addDependency":
        if args[2].value == "mandatory":
            return "writeManDep", "set:MAN"
        return "writeOptDep", "set:OPT"
    if op == "removeDependency":
        variant, vp = args
        mandatory = any(
            d.variant == variant and d.vp == vp and d.kind.value == "mandatory"
            for d in model.dependencies
        )
        return ("writeManDep" if mandatory else "writeOptDep"), f"dep:{variant}->{vp}"
    if op == "addAltGroup":
        return "add_AltGroup", f"altgroup:{args[3]}"
    if op == "removeAltGroup":
        return "remove_AltGroup", f"altgroup:{args[0]}"
    kind, source, target = args
    rbac_op = "add_Constraint" if op == "addConstraint" else "remove_Constraint"
    return rbac_op, f"constraint:{kind.value}:{endpoint_text(source)}:{endpoint_text(target)}"


def _filter_allows(mode: str, operation: str, exact: str | None) -> bool:
    if mode == "any":
        return True
    if mode == "read":
        return operation in READ_LIKE
    return operation == exact


def expected_view(policy: o.Policy, model: o.Model, roles, mode: str,
                  exact: str | None = None) -> tuple[frozenset[str], frozenset[str]]:
    """(visible element ids, stub names) of the union of the roles' views.

    Admitted: the members of each granted category, plus each granted
    element id that exists. Visible relations pull in their variant
    endpoints; variation points they reference without being admitted are
    stubs.
    """
    table = category_table(model)
    present = table["OBJECTS"]
    roles = set(roles)
    admitted: set[str] = set()
    for perm, role in policy.permission_assignments:
        if role not in roles or not _filter_allows(mode, perm.operation, exact):
            continue
        text = perm.object.text
        if text.startswith("set:"):
            admitted |= table[text[4:]]
        elif text in present:
            admitted.add(text)
    visible = set(admitted)
    referenced: set[str] = set()
    groups = {g.vp: g for g in model.alt_groups}
    for text in admitted:
        prefix, _, rest = text.partition(":")
        if prefix == "dep":
            variant, _, vp = rest.partition("->")
            visible.add(f"variant:{variant}")
            referenced.add(vp)
        elif prefix == "altgroup":
            visible |= {f"variant:{m}" for m in groups[rest].variants}
            referenced.add(rest)
        elif prefix == "constraint":
            _, u1, n1, u2, n2 = rest.split(":")
            for universe, name in ((u1, n1), (u2, n2)):
                if universe == "variant":
                    visible.add(f"variant:{name}")
                else:
                    referenced.add(name)
    shown_vps = {t[3:] for t in admitted if t.startswith("vp:")}
    return frozenset(visible), frozenset(referenced - shown_vps)
