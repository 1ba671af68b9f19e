"""Deterministic JSON persistence for models and policies, plus DOT export.

Documents are UTF-8 JSON with sorted keys; their lists and DOT text follow
each component's order in ``model``, so equal values give equal bytes.
Loading rejects a document that parses but violates a structural invariant
with StructuralViolation naming it. Constraints are saved as
``stored_constraints`` lists them and loaded as each one's ``closure``.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import OvmRbacError, ParseError, StructuralViolation
from .model import (
    AltGroup,
    Constraint,
    ConstraintKind,
    Dependency,
    EndpointRef,
    Model,
    Universe,
    VariabilityKind,
    VariationPoint,
    Variant,
    check_structure,
    list_alt_groups,
    list_dependencies,
    list_variants,
    stored_constraints,
)
from .rbac import Permission, Policy, check_id, parse_object_id


def _endpoint_to_json(ref: EndpointRef) -> dict[str, str]:
    return {"universe": ref.universe.value, "name": ref.name}


def model_to_document(model: Model) -> dict[str, Any]:
    return {
        "variation_points": [
            {"name": point.name, "kind": point.kind.value}
            for point in sorted(model.variation_points, key=VariationPoint.sort_key)
        ],
        "variants": list_variants(model),
        "dependencies": [
            {"variant": d.variant, "vp": d.vp, "kind": d.kind.value}
            for d in list_dependencies(model)
        ],
        "alt_groups": [
            {
                "vp": g.vp,
                "min": g.min_card,
                "max": g.max_card,
                "variants": sorted(g.variants),
            }
            for g in list_alt_groups(model)
        ],
        "constraints": [
            {
                "kind": c.kind.value,
                "from": _endpoint_to_json(c.source),
                "to": _endpoint_to_json(c.target),
            }
            for c in stored_constraints(model)
        ],
    }


def save_model(model: Model) -> str:
    return json.dumps(model_to_document(model), indent=2, sort_keys=True) + "\n"


def _load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError("document nests too deeply") from None
    except ValueError as exc:  # e.g. an integer beyond the digit limit
        raise ParseError(str(exc)) from None


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _enum_value(enum_cls, raw, where: str):
    try:
        return enum_cls(raw)
    except ValueError:
        raise ParseError(f"{where}: unknown value {raw!r}") from None


def _endpoint_from_json(data: Any, where: str) -> EndpointRef:
    _expect(isinstance(data, dict), f"{where}: endpoint must be an object")
    universe = _enum_value(Universe, data.get("universe"), where)
    name = data.get("name")
    _expect(isinstance(name, str), f"{where}: endpoint name must be a string")
    return EndpointRef(universe, name)


def load_model(text: str) -> Model:
    """Parse a model document; reject structural-invariant violations."""
    data = _load_json(text)
    _expect(isinstance(data, dict), "model document must be a JSON object")
    for key in ("variation_points", "variants", "dependencies", "alt_groups",
                "constraints"):
        _expect(isinstance(data.get(key, []), list), f"{key} must be a list")
    try:
        points = set()
        for entry in data.get("variation_points", []):
            _expect(isinstance(entry, dict), "variation_points entries must be objects")
            kind = _enum_value(VariabilityKind, entry.get("kind"), "variation_points")
            points.add(VariationPoint(entry.get("name"), kind))
        variants = set()
        for name in data.get("variants", []):
            _expect(isinstance(name, str), "variants entries must be strings")
            variants.add(Variant(name))
        dependencies = set()
        for entry in data.get("dependencies", []):
            _expect(isinstance(entry, dict), "dependencies entries must be objects")
            kind = _enum_value(VariabilityKind, entry.get("kind"), "dependencies")
            dependencies.add(Dependency(entry.get("variant"), entry.get("vp"), kind))
        groups = set()
        for entry in data.get("alt_groups", []):
            _expect(isinstance(entry, dict), "alt_groups entries must be objects")
            members = entry.get("variants", [])
            _expect(
                isinstance(members, list) and all(isinstance(m, str) for m in members),
                "alt_groups variants must be a list of strings",
            )
            cards = entry.get("min"), entry.get("max")
            groups.add(AltGroup(frozenset(members), *cards, entry.get("vp")))
        constraints = set()
        for entry in data.get("constraints", []):
            _expect(isinstance(entry, dict), "constraints entries must be objects")
            kind = _enum_value(ConstraintKind, entry.get("kind"), "constraints")
            source = _endpoint_from_json(entry.get("from"), "constraints")
            target = _endpoint_from_json(entry.get("to"), "constraints")
            constraints.update(Constraint(kind, source, target).closure())
    except ParseError:
        raise
    except OvmRbacError as exc:
        raise StructuralViolation(str(exc)) from None
    model = Model(
        variation_points=frozenset(points),
        variants=frozenset(variants),
        dependencies=frozenset(dependencies),
        alt_groups=frozenset(groups),
        constraints=frozenset(constraints),
    )
    violations = check_structure(model)
    if violations:
        raise StructuralViolation(str(violations[0]))
    return model


def policy_to_document(policy: Policy) -> dict[str, Any]:
    grouped: dict[tuple[str, str], list[str]] = {}
    for perm, role in policy.permission_assignments:
        grouped.setdefault((role, perm.operation), []).append(perm.object.text)
    grants = [
        {"objects": sorted(objects), "operation": operation, "role": role}
        for (role, operation), objects in sorted(grouped.items())
    ]
    return {
        "users": sorted(policy.users),
        "roles": sorted(policy.roles),
        "operations": sorted(policy.operations),
        "user_assignments": [
            {"user": user, "role": role}
            for user, role in sorted(policy.user_assignments)
        ],
        "grants": grants,
    }


def save_policy(policy: Policy) -> str:
    return json.dumps(policy_to_document(policy), indent=2, sort_keys=True) + "\n"


def load_policy(text: str) -> Policy:
    """Parse a policy document; every reference must name a registered id."""
    data = _load_json(text)
    _expect(isinstance(data, dict), "policy document must be a JSON object")
    for key in ("user_assignments", "grants"):
        _expect(isinstance(data.get(key, []), list), f"{key} must be a list")
    for key in ("users", "roles", "operations"):
        _expect(isinstance(data.get(key, []), list), f"{key} must be a list")
        for value in data.get(key, []):
            _expect(isinstance(value, str), f"{key} entries must be strings")
            check_id(value, key[:-1])  # the rule add_user and add_role apply
    users = frozenset(data.get("users", []))
    roles = frozenset(data.get("roles", []))
    operations = frozenset(data.get("operations", []))

    assignments = set()
    for entry in data.get("user_assignments", []):
        _expect(isinstance(entry, dict), "user_assignments entries must be objects")
        user, role = entry.get("user"), entry.get("role")
        _expect(isinstance(user, str) and isinstance(role, str),
                "user_assignments entries need user and role strings")
        if user not in users:
            raise StructuralViolation(f"assignment names unregistered user {user!r}")
        if role not in roles:
            raise StructuralViolation(f"assignment names unregistered role {role!r}")
        assignments.add((user, role))

    grants = set()
    for entry in data.get("grants", []):
        _expect(isinstance(entry, dict), "grants entries must be objects")
        operation, role = entry.get("operation"), entry.get("role")
        _expect(isinstance(operation, str) and isinstance(role, str),
                "grants entries need operation and role strings")
        if role not in roles:
            raise StructuralViolation(f"grant names unregistered role {role!r}")
        if operation not in operations:
            raise StructuralViolation(
                f"grant names unregistered operation {operation!r}"
            )
        objects = entry.get("objects", [])
        _expect(isinstance(objects, list), "grant objects must be a list")
        for text in objects:
            _expect(isinstance(text, str), "grant objects must be strings")
            grants.add((Permission(parse_object_id(text), operation), role))

    return Policy(
        users=users,
        roles=roles,
        operations=operations,
        user_assignments=frozenset(assignments),
        permission_assignments=frozenset(grants),
    )


# --- DOT export -------------------------------------------------------------


def _escape(text: str) -> str:
    """Text for inside a DOT quoted string, backslashes and quotes escaped."""
    if '"' not in text and "\\" not in text:
        return text
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _vp_node(name: str, kind: VariabilityKind | None) -> str:
    """A variation point's node; a stub, whose kind is hidden, is grey."""
    name, style = _escape(name), ""
    if kind is VariabilityKind.OPTIONAL:
        style = ", style=dashed"
    if kind is None:
        style = ", color=gray, fontcolor=gray"
    return f'  "vp:{name}" [label="VP\\n{name}", shape=triangle{style}];'


def export_dot(model: Model, view: Model | None = None) -> str:
    """Render the model (or a view of it) in the OVM shape conventions.

    Variation points are triangles, variants boxes; mandatory dependencies
    are solid edges, optional ones dashed; group edges carry the selection
    cardinality; requires is a dashed directed edge, excludes one dashed
    bidirectional edge per unordered pair. Views omit invisible elements and
    grey out stub variation points; ``model`` is not read when ``view`` is given.
    """
    shown = view or model
    stubs = getattr(shown, "vp_stubs", frozenset())

    lines = ["digraph ovm {"]
    for point in sorted(shown.variation_points, key=VariationPoint.sort_key):
        lines.append(_vp_node(point.name, point.kind))
    for name in sorted(stubs):
        lines.append(_vp_node(name, None))
    names = map(_escape, list_variants(shown))
    lines += [f'  "variant:{name}" [label="V\\n{name}", shape=box];' for name in names]

    for dep in list_dependencies(shown):
        style = "solid" if dep.kind is VariabilityKind.MANDATORY else "dashed"
        edge = f'"variant:{_escape(dep.variant)}" -> "vp:{_escape(dep.vp)}"'
        lines.append(f"  {edge} [style={style}];")
    for group in list_alt_groups(shown):
        label = f"[{group.min_card}..{group.max_card}]"
        edge = f'"vp:{_escape(group.vp)}" [style=dashed, label="{label}"];'
        lines += [f'  "variant:{_escape(m)}" -> {edge}' for m in sorted(group.variants)]

    for constraint in stored_constraints(shown):
        excludes = constraint.kind is ConstraintKind.EXCLUDES
        attrs = 'dir=both, label="excludes"' if excludes else 'label="requires"'
        lines.append(
            f'  "{_escape(str(constraint.source))}" -> "{_escape(str(constraint.target))}" '
            f"[style=dashed, {attrs}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
