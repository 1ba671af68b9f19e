"""Core role-based access control over variability-model objects.

Policies are immutable snapshots of five sets: users, roles, registered
operation ids, the user-assignment relation, and the permission-assignment
relation. A permission pairs an operation id with an object identifier that
names either a single model element or a whole element category.

Access checks are fail-closed: unknown users, roles, operations, or objects
yield a Deny, never an error. Administrative operations (register, assign,
grant) do raise for unknown ids. Category grants resolve dynamically: a
grant on ``set:MAN_VP`` covers whatever elements are mandatory variation
points at check time, so newly added elements are covered without
re-granting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, NamedTuple

from .errors import (
    AlreadyAssigned,
    DuplicateId,
    InvalidName,
    NotAssigned,
    NotGranted,
    ParseError,
    UnknownOperation,
    UnknownRole,
    UnknownUser,
)
from .model import (
    ConstraintKind,
    EndpointRef,
    Model,
    Universe,
    VariabilityKind,
    check_name,
)

# The fixed registry of operation ids a fresh policy starts with.
OPERATION_CATALOG: tuple[str, ...] = (
    "read",
    "add_Variation_Point",
    "remove_Variation_Point",
    "readAltGroup",
    "writeAltGroup",
    "readOptDep",
    "writeOptDep",
    "readManDep",
    "writeManDep",
    "add_Variant",
    "remove_Variant",
    "add_AltGroup",
    "remove_AltGroup",
    "add_Constraint",
    "remove_Constraint",
)

# Operations that only reveal information, used by the read-like view filter.
READ_LIKE_OPERATIONS = frozenset({"read", "readAltGroup", "readOptDep", "readManDep"})

# Creation operations whose targets name elements that do not exist yet; for
# these a category grant matches on the id's syntactic category.
_CREATION_OPERATIONS = frozenset({"add_AltGroup", "add_Constraint"})


class Category(Enum):
    """The element categories; each is a named subset of all objects."""

    OBJECTS = "OBJECTS"
    MAN_VP = "MAN_VP"
    OPT_VP = "OPT_VP"
    VARIANT = "VARIANT"
    MAN = "MAN"
    OPT = "OPT"
    ALTGROUP = "ALTGROUP"
    EXCLUDES_V_V = "EXCLUDES_V_V"
    EXCLUDES_V_VP = "EXCLUDES_V_VP"
    EXCLUDES_VP_V = "EXCLUDES_VP_V"
    EXCLUDES_VP_VP = "EXCLUDES_VP_VP"
    REQUIRES_V_V = "REQUIRES_V_V"
    REQUIRES_V_VP = "REQUIRES_V_VP"
    REQUIRES_VP_V = "REQUIRES_VP_V"
    REQUIRES_VP_VP = "REQUIRES_VP_VP"


class KindObjects(NamedTuple):
    """Where one variability kind lands in the access model."""

    vp_category: Category
    dep_category: Category
    dep_write: str


KIND_OBJECTS: dict[VariabilityKind, KindObjects] = {
    VariabilityKind.MANDATORY: KindObjects(Category.MAN_VP, Category.MAN, "writeManDep"),
    VariabilityKind.OPTIONAL: KindObjects(Category.OPT_VP, Category.OPT, "writeOptDep"),
}


class Decision(Enum):
    ALLOW = "allow"
    DENY = "deny"


class ParsedObject(NamedTuple):
    """Structured object id: kind is one of category, vp, variant, dep,
    altgroup, constraint; fields carry the decoded payload."""

    kind: str
    fields: tuple


def _parse_object_text(text: str) -> ParsedObject:
    if not isinstance(text, str) or ":" not in text:
        raise ParseError(f"malformed object id {text!r}")
    prefix, _, rest = text.partition(":")
    if prefix == "set":
        try:
            return ParsedObject("category", (Category(rest),))
        except ValueError:
            raise ParseError(f"unknown category {rest!r} in object id") from None
    try:
        if prefix in ("vp", "variant", "altgroup"):
            return ParsedObject(prefix, (check_name(rest),))
        if prefix == "dep":
            variant, sep, vp = rest.partition("->")
            if not sep or "->" in vp:
                raise ParseError(f"malformed dependency id {text!r}")
            return ParsedObject("dep", (check_name(variant), check_name(vp)))
        if prefix == "constraint":
            parts = rest.split(":")
            if len(parts) != 5:
                raise ParseError(f"malformed constraint id {text!r}")
            kind = ConstraintKind(parts[0])
            source = EndpointRef(Universe(parts[1]), check_name(parts[2]))
            target = EndpointRef(Universe(parts[3]), check_name(parts[4]))
            return ParsedObject("constraint", (kind, source, target))
    except (ValueError, InvalidName) as exc:
        raise ParseError(f"malformed object id {text!r}: {exc}") from None
    raise ParseError(f"unknown object id prefix {prefix!r}")


@dataclass(frozen=True)
class ObjectId:
    """Canonical identifier of an access-controlled object.

    Renderings: ``set:<CATEGORY>``, ``vp:<name>``, ``variant:<name>``,
    ``dep:<variant>-><vp>``, ``altgroup:<vp>``, and
    ``constraint:<kind>:<universe>:<name>:<universe>:<name>``. The text is
    unique per object and stable, so equality and ordering are textual.
    An element id need not reference a currently existing element: grants
    may precede model edits and stay inert until the element appears.
    """

    text: str

    def __post_init__(self) -> None:
        _parse_object_text(self.text)

    def __str__(self) -> str:
        return self.text

    def parts(self) -> ParsedObject:
        return _parse_object_text(self.text)

    @property
    def is_category(self) -> bool:
        return self.text.startswith("set:")

    @property
    def category(self) -> Category | None:
        parsed = _parse_object_text(self.text)
        return parsed.fields[0] if parsed.kind == "category" else None


def parse_object_id(text: str) -> ObjectId:
    """Parse a canonical object-id string, raising ParseError when malformed."""
    return ObjectId(text)


def category_object(category: Category) -> ObjectId:
    return ObjectId(f"set:{category.value}")


def vp_object(name: str) -> ObjectId:
    return ObjectId(f"vp:{name}")


def variant_object(name: str) -> ObjectId:
    return ObjectId(f"variant:{name}")


def dependency_object(variant: str, vp: str) -> ObjectId:
    return ObjectId(f"dep:{variant}->{vp}")


def alt_group_object(vp: str) -> ObjectId:
    return ObjectId(f"altgroup:{vp}")


def constraint_object(
    kind: ConstraintKind, source: EndpointRef, target: EndpointRef
) -> ObjectId:
    return ObjectId(f"constraint:{kind.value}:{source}:{target}")


@dataclass(frozen=True)
class Permission:
    """An approval to perform one operation on one object."""

    object: ObjectId
    operation: str

    def sort_key(self) -> tuple[str, str]:
        return (self.object.text, self.operation)


@dataclass(frozen=True)
class Policy:
    users: frozenset[str] = frozenset()
    roles: frozenset[str] = frozenset()
    operations: frozenset[str] = frozenset()
    user_assignments: frozenset[tuple[str, str]] = frozenset()
    permission_assignments: frozenset[tuple[Permission, str]] = frozenset()


def new_empty_policy() -> Policy:
    """An empty policy with the fixed operation catalog pre-registered."""
    return Policy(operations=frozenset(OPERATION_CATALOG))


def check_id(value: str, what: str) -> str:
    if not isinstance(value, str) or not value or value != value.strip():
        raise InvalidName(f"{what} id must be a non-empty trimmed string")
    return value


# --- administrative operations ------------------------------------------------

def add_user(policy: Policy, user: str) -> Policy:
    check_id(user, "user")
    if user in policy.users:
        raise DuplicateId(f"user {user!r} already registered")
    return replace(policy, users=policy.users | {user})


def add_role(policy: Policy, role: str) -> Policy:
    check_id(role, "role")
    if role in policy.roles:
        raise DuplicateId(f"role {role!r} already registered")
    return replace(policy, roles=policy.roles | {role})


def assign_user(policy: Policy, user: str, role: str) -> Policy:
    """Link a registered user to a registered role."""
    if user not in policy.users:
        raise UnknownUser(f"user {user!r} is not registered")
    if role not in policy.roles:
        raise UnknownRole(f"role {role!r} is not registered")
    if (user, role) in policy.user_assignments:
        raise AlreadyAssigned(f"{user!r} already holds role {role!r}")
    return replace(
        policy, user_assignments=policy.user_assignments | {(user, role)}
    )


def deassign_user(policy: Policy, user: str, role: str) -> Policy:
    if (user, role) not in policy.user_assignments:
        raise NotAssigned(f"{user!r} does not hold role {role!r}")
    return replace(
        policy, user_assignments=policy.user_assignments - {(user, role)}
    )


def grant_permission2(
    policy: Policy, objects: Iterable[ObjectId], operation: str, role: str
) -> Policy:
    """Assign (object, operation) pairs to a role, one per input object.

    Takes a whole set of objects in one call. Granting an already-present
    pair is a no-op (set semantics). Objects are not checked against any
    model: element grants may dangle until the element exists, and no
    object/operation compatibility is imposed.
    """
    if role not in policy.roles:
        raise UnknownRole(f"role {role!r} is not registered")
    if operation not in policy.operations:
        raise UnknownOperation(f"operation {operation!r} is not registered")
    entries = {(Permission(obj, operation), role) for obj in objects}
    return replace(
        policy, permission_assignments=policy.permission_assignments | entries
    )


def revoke_permission(
    policy: Policy, obj: ObjectId, operation: str, role: str
) -> Policy:
    entry = (Permission(obj, operation), role)
    if entry not in policy.permission_assignments:
        raise NotGranted(
            f"role {role!r} holds no ({obj}, {operation}) permission"
        )
    return replace(
        policy, permission_assignments=policy.permission_assignments - {entry}
    )


# --- category resolution --------------------------------------------------------

def element_objects(model: Model) -> dict[ObjectId, object]:
    """Every model element, keyed by its object id."""
    elements: dict[ObjectId, object] = {}
    for point in model.variation_points:
        elements[vp_object(point.name)] = point
    for variant in model.variants:
        elements[variant_object(variant.name)] = variant
    for dep in model.dependencies:
        elements[dependency_object(dep.variant, dep.vp)] = dep
    for group in model.alt_groups:
        elements[alt_group_object(group.vp)] = group
    for c in model.constraints:
        elements[constraint_object(c.kind, c.source, c.target)] = c
    return elements


def element_object_ids(model: Model) -> frozenset[ObjectId]:
    """Every element-scoped object id present in the model."""
    return frozenset(element_objects(model))


def _constraint_category(kind: ConstraintKind, source: Universe, target: Universe) -> Category:
    tag = {Universe.VARIANT: "V", Universe.VP: "VP"}
    return Category(f"{kind.value.upper()}_{tag[source]}_{tag[target]}")


def category_members(model: Model, category: Category) -> frozenset[ObjectId]:
    """The element ids currently belonging to a category (not OBJECTS)."""
    if category is Category.OBJECTS:
        return element_object_ids(model)
    if category is Category.VARIANT:
        return frozenset(variant_object(v.name) for v in model.variants)
    for kind, objects in KIND_OBJECTS.items():
        if category is objects.vp_category:
            return frozenset(
                vp_object(p.name) for p in model.variation_points if p.kind is kind
            )
        if category is objects.dep_category:
            return frozenset(
                dependency_object(d.variant, d.vp)
                for d in model.dependencies
                if d.kind is kind
            )
    if category is Category.ALTGROUP:
        return frozenset(alt_group_object(g.vp) for g in model.alt_groups)
    return frozenset(
        constraint_object(c.kind, c.source, c.target)
        for c in model.constraints
        if _constraint_category(c.kind, c.source.universe, c.target.universe)
        is category
    )


def syntactic_category(obj: ObjectId) -> Category | None:
    """The category an element id belongs to by its spelling alone.

    Only variant, alt-group, and constraint ids encode their category; vp
    and dependency ids need the model to resolve their mandatory/optional
    kind.
    """
    parsed = _parse_object_text(obj.text)
    if parsed.kind == "variant":
        return Category.VARIANT
    if parsed.kind == "altgroup":
        return Category.ALTGROUP
    if parsed.kind == "constraint":
        kind, source, target = parsed.fields
        return _constraint_category(kind, source.universe, target.universe)
    return None


def object_matches(
    granted: ObjectId, requested: ObjectId, model: Model, operation: str
) -> bool:
    """Whether a granted object covers a requested one under this model.

    Exact ids always match; ``set:OBJECTS`` matches everything; any other
    category matches the element ids it currently contains. For creation
    operations the target element does not exist yet, so the category grant
    matches on the id's syntactic category instead.
    """
    if granted == requested:
        return True
    cat = granted.category
    if cat is None:
        return False
    if cat is Category.OBJECTS:
        return True
    if requested.is_category:
        return False
    if requested in category_members(model, cat):
        return True
    if operation in _CREATION_OPERATIONS:
        return syntactic_category(requested) is cat
    return False


# --- queries and checks -----------------------------------------------------------

def assigned_roles(policy: Policy, user: str) -> frozenset[str]:
    return frozenset(r for (u, r) in policy.user_assignments if u == user)


def role_permissions(policy: Policy, role: str) -> frozenset[Permission]:
    """The role's permission set, category grants left unexpanded."""
    if role not in policy.roles:
        raise UnknownRole(f"role {role!r} is not registered")
    return frozenset(
        perm for (perm, r) in policy.permission_assignments if r == role
    )


def check_access(
    policy: Policy,
    model: Model,
    user: str,
    operation: str,
    obj: ObjectId,
) -> Decision:
    """Decide whether ``user`` may perform ``operation`` on ``obj``.

    Fail-closed: any unknown id simply yields Deny.
    """
    for role in assigned_roles(policy, user):
        for perm, holder in policy.permission_assignments:
            if holder != role or perm.operation != operation:
                continue
            if object_matches(perm.object, obj, model, operation):
                return Decision.ALLOW
    return Decision.DENY
