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

The same keyed grants decide (``check_access``) and project views
(``build_view``). A visible relation carries its variants along (a variant is
just a name), and a variation point it names that no grant admits is a stub:
its name is shown, its mandatory/optional kind withheld.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from itertools import chain
from types import MappingProxyType
from typing import Callable, Container, Iterable, Iterator, Mapping

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
    AltGroup,
    Constraint,
    ConstraintKind,
    Dependency,
    EndpointRef,
    Model,
    Record,
    Snapshot,
    Universe,
    VariabilityKind,
    VariationPoint,
    Variant,
    check_name,
    check_type,
    references,
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


class KindObjects(Record):
    """Where one variability kind lands in the access model."""

    __slots__ = ()
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


_TAGS = {Universe.VARIANT: "V", Universe.VP: "VP"}

# The category of each (kind, source universe, target universe) constraint shape.
_CONSTRAINT_CATEGORIES: dict[tuple, Category] = {
    (kind, source, target): Category(f"{kind.name}_{_TAGS[source]}_{_TAGS[target]}")
    for kind in ConstraintKind
    for source in Universe
    for target in Universe
}

# The category a variant or alt-group id spells; vp and dependency ids spell
# none, since their mandatory/optional kind lives in the model.
_SPELLED = {"vp": None, "variant": Category.VARIANT, "altgroup": Category.ALTGROUP}
_CATEGORIES = tuple(Category)  # the order a decision tries categories in


def _parse_object_text(text: str) -> Category | None:
    """Check an object-id text; return the category it names or spells."""
    if not isinstance(text, str) or ":" not in text:
        raise ParseError(f"malformed object id {text!r}")
    prefix, _, rest = text.partition(":")
    if prefix == "set":
        try:
            return Category(rest)
        except ValueError:
            raise ParseError(f"unknown category {rest!r} in object id") from None
    try:
        if prefix in _SPELLED:
            check_name(rest)
            return _SPELLED[prefix]
        if prefix == "dep":
            variant, sep, vp = rest.partition("->")
            if not sep or "->" in vp:
                raise ParseError(f"malformed dependency id {text!r}")
            check_name(variant)
            check_name(vp)
            return None
        if prefix == "constraint":
            parts = rest.split(":")
            if len(parts) != 5:
                raise ParseError(f"malformed constraint id {text!r}")
            kind = ConstraintKind(parts[0])
            source = Universe(parts[1])
            check_name(parts[2])
            target = Universe(parts[3])
            check_name(parts[4])
            return _CONSTRAINT_CATEGORIES[kind, source, target]
    except (ValueError, InvalidName) as exc:
        raise ParseError(f"malformed object id {text!r}: {exc}") from None
    raise ParseError(f"unknown object id prefix {prefix!r}")


class ObjectId(Record):
    """Canonical identifier of an access-controlled object.

    Renderings: ``set:<CATEGORY>``, ``vp:<name>``, ``variant:<name>``,
    ``dep:<variant>-><vp>``, ``altgroup:<vp>``, and
    ``constraint:<kind>:<universe>:<name>:<universe>:<name>``. The text is unique
    per object and stable, so equality and hashing are textual. It is parsed once,
    on construction: ``_category`` is the category the text names (a ``set:`` id)
    or spells (a variant, alt-group or constraint id), else None; ``category`` is
    ``_category`` for a ``set:`` id, else None; ``is_category`` is whether it is a
    ``set:`` id. An element id need not reference a currently existing element:
    grants may precede model edits and stay inert until the element appears.
    """

    __slots__ = ()
    text: str
    _category: Category | None
    category: Category | None
    is_category: bool
    _derived = ("_category", "category", "is_category")

    def __new__(cls, text: str):
        category = _parse_object_text(text)
        named = text.startswith("set:")
        return tuple.__new__(cls, (text, category, category if named else None, named))

    def __hash__(self) -> int:
        return hash(self[:1])

    def __str__(self) -> str:
        return self.text


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


class Permission(Record):
    """An approval to perform one operation on one object."""

    __slots__ = ()
    object: ObjectId
    operation: str

    def __new__(cls, object: ObjectId, operation: str):
        return tuple.__new__(cls, (check_type(object, ObjectId), operation))

    def sort_key(self) -> tuple[str, str]:
        return (self.object.text, self.operation)


class Policy(Snapshot):
    __slots__ = ()
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
    if not value.isascii() and any("\ud800" <= c <= "\udfff" for c in value):
        raise InvalidName(f"{what} id {value!r} cannot be encoded as UTF-8")
    return value


# --- administrative operations ------------------------------------------------

def add_user(policy: Policy, user: str) -> Policy:
    check_id(user, "user")
    if user in policy.users:
        raise DuplicateId(f"user {user!r} already registered")
    return policy._replace(users=policy.users | {user})


def add_role(policy: Policy, role: str) -> Policy:
    check_id(role, "role")
    if role in policy.roles:
        raise DuplicateId(f"role {role!r} already registered")
    return policy._replace(roles=policy.roles | {role})


def assign_user(policy: Policy, user: str, role: str) -> Policy:
    """Link a registered user to a registered role."""
    if user not in policy.users:
        raise UnknownUser(f"user {user!r} is not registered")
    if role not in policy.roles:
        raise UnknownRole(f"role {role!r} is not registered")
    if (user, role) in policy.user_assignments:
        raise AlreadyAssigned(f"{user!r} already holds role {role!r}")
    return policy._replace(user_assignments=policy.user_assignments | {(user, role)})


def deassign_user(policy: Policy, user: str, role: str) -> Policy:
    if (user, role) not in policy.user_assignments:
        raise NotAssigned(f"{user!r} does not hold role {role!r}")
    return policy._replace(user_assignments=policy.user_assignments - {(user, role)})


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
    return policy._replace(permission_assignments=policy.permission_assignments | entries)


def revoke_permission(
    policy: Policy, obj: ObjectId, operation: str, role: str
) -> Policy:
    entry = (Permission(obj, operation), role)
    if entry not in policy.permission_assignments:
        raise NotGranted(
            f"role {role!r} holds no ({obj}, {operation}) permission"
        )
    return policy._replace(permission_assignments=policy.permission_assignments - {entry})


# --- category resolution --------------------------------------------------------

# Per element type: its object-id spelling and the one category it belongs to.
_ELEMENT_RULES: dict[type, tuple[Callable, Callable]] = {
    VariationPoint: (
        lambda p: f"vp:{p.name}", lambda p: KIND_OBJECTS[p.kind].vp_category
    ),
    Variant: (lambda v: f"variant:{v.name}", lambda v: Category.VARIANT),
    Dependency: (
        lambda d: f"dep:{d.variant}->{d.vp}", lambda d: KIND_OBJECTS[d.kind].dep_category
    ),
    AltGroup: (lambda g: f"altgroup:{g.vp}", lambda g: Category.ALTGROUP),
    Constraint: (
        lambda c: f"constraint:{c.kind.value}:{c.source}:{c.target}",
        lambda c: _CONSTRAINT_CATEGORIES[c.kind, c.source.universe, c.target.universe],
    ),
}

# The model component each category draws its members from.
_COMPONENTS: dict[Category, str] = {
    Category.MAN_VP: "variation_points",
    Category.OPT_VP: "variation_points",
    Category.VARIANT: "variants",
    Category.MAN: "dependencies",
    Category.OPT: "dependencies",
    Category.ALTGROUP: "alt_groups",
    **dict.fromkeys(_CONSTRAINT_CATEGORIES.values(), "constraints"),
}

_last_index: list = [None, None]  # _category_index's snapshot and its index
_last_policy: list = [None, None]  # _policy_index's policy and its index


def element_text(element) -> str:
    """The canonical object-id spelling of a model element."""
    return _ELEMENT_RULES[type(element)][0](element)


def model_elements(model: Model) -> Iterator:
    """Every element of the model, component by component."""
    return chain.from_iterable(model._values[:len(Model._fields)])


def element_object_ids(model: Model) -> frozenset[ObjectId]:
    """Every element-scoped object id present in the model."""
    return frozenset(ObjectId(element_text(e)) for e in model_elements(model))


class _ViewIndex:
    """What views read of one snapshot, each element spelled once: each
    category's (member, id text) pairs, each element by its id text and each
    variant by its name; and, built when a view first admits them, parts."""

    __slots__ = ("members", "elements", "variants", "parts")

    def __init__(self, model: Model) -> None:
        members: dict[Category, list[tuple[object, str]]] = {}
        elements: dict[str, tuple[str, object]] = {}  # id text -> component, element
        for component, values in zip(Model._fields, model._values):
            for element in values:
                spell, classify = _ELEMENT_RULES[type(element)]
                text = spell(element)
                elements[text] = component, element
                members.setdefault(classify(element), []).append((element, text))
        self.members, self.elements = members, elements
        self.variants: dict[str, tuple[Variant, str]] = {
            v.name: (v, text) for v, text in members.get(Category.VARIANT, ())}
        self.parts: dict[Category | str, tuple] = {}

    def part(self, key: Category | str) -> tuple:
        """A category, or the element an id text names: its component, members
        and their id texts; the variants its relations name, as elements and
        as id texts; and the names of the variation points they name."""
        if key not in self.parts:
            component, element = self.elements.get(key) or (_COMPONENTS[key], None)
            pairs = self.members[key] if element is None else [(element, key)]
            members, texts = zip(*pairs)
            alone = Model(**{component: frozenset(members)})
            named = {n for n, _ in references(alone, Universe.VARIANT)}
            carried = [self.variants.get(n) or ((v := Variant(n)), element_text(v))
                       for n in named]
            self.parts[key] = (
                component, getattr(alone, component), texts,
                frozenset(v for v, _ in carried), [text for _, text in carried],
                {n for n, _ in references(alone, Universe.VP)},
            )
        return self.parts[key]


def _kept(cache: list, key, build: Callable):
    """The index kept in ``cache``, a [key, index] list, rebuilt when ``key``
    differs by value from the last key. An equal key takes the index over, so
    that its later calls match by identity instead of comparing every value."""
    last, index = cache
    if last != key:
        index = build(key)
    cache[:] = key, index
    return index


def _category_index(model: Model) -> _ViewIndex:
    return _kept(_last_index, model, _ViewIndex)


def category_members(model: Model, category: Category) -> frozenset[ObjectId]:
    """The element ids currently belonging to a category."""
    if category is Category.OBJECTS:
        return element_object_ids(model)
    return frozenset(
        ObjectId(element_text(e))
        for e in getattr(model, _COMPONENTS[category])
        if _ELEMENT_RULES[type(e)][1](e) is category
    )


# --- queries and checks -----------------------------------------------------------

class _PolicyIndex:
    """A policy's user roles, role permissions and ``check_access`` entries."""

    __slots__ = ("roles", "grants", "decisions")

    def __init__(self, policy: Policy) -> None:
        roles, grants = defaultdict(set), defaultdict(set)
        for user, role in policy.user_assignments:
            roles[user].add(role)
        for perm, role in policy.permission_assignments:
            grants[role].add(perm)
        self.roles: dict[str, frozenset[str]] = {u: frozenset(r) for u, r in roles.items()}
        self.grants: dict[str, frozenset[Permission]] = {
            r: frozenset(p) for r, p in grants.items()}
        self.decisions: dict[tuple[str, str], tuple[dict, tuple[Category, ...]]] = {}


def _policy_index(policy: Policy) -> _PolicyIndex:
    return _kept(_last_policy, policy, _PolicyIndex)


def _grants(index: _PolicyIndex, roles: Iterable[str]) -> frozenset[Permission]:
    """The union of the roles' permission sets, category grants left unexpanded."""
    return frozenset().union(*(index.grants.get(role, ()) for role in roles))


def role_permissions(policy: Policy, role: str) -> frozenset[Permission]:
    """The role's permission set, category grants left unexpanded."""
    if role not in policy.roles:
        raise UnknownRole(f"role {role!r} is not registered")
    return _policy_index(policy).grants.get(role, frozenset())


def user_permissions(policy: Policy, user: str) -> frozenset[Permission]:
    """The union of the permission sets of every role the user holds."""
    if user not in policy.users:
        raise UnknownUser(f"user {user!r} is not registered")
    index = _policy_index(policy)
    return _grants(index, index.roles.get(user, ()))


def keyed_grants(
    permissions: Iterable[Permission], operations: Container[str] | None = None
) -> dict[Category | str, set[Permission]]:
    """The permissions on ``operations`` (None: any), keyed as decisions and
    views read them: by the category a ``set:`` id names, else by id text."""
    keyed: dict[Category | str, set[Permission]] = {}
    for perm in permissions:
        if operations is None or perm.operation in operations:
            keyed.setdefault(perm.object.category or perm.object.text, set()).add(perm)
    return keyed


def check_access(
    policy: Policy, model: Model, user: str, operation: str, obj: ObjectId
) -> Decision:
    """Decide whether ``user`` may perform ``operation`` on ``obj``.

    The user's grants on ``operation`` are keyed as views key them
    (``keyed_grants``). A grant covers ``obj`` by one of four rules:
    - it is ``set:OBJECTS``, which covers every object;
    - its key is the key of ``obj``: the same element id or the same category;
    - for an element id and a creation operation, whose element does not
      exist yet, it is the category the id spells;
    - for an element id, it is a category that holds the element now.
    Fail-closed: any unknown id simply yields Deny. The policy index keeps the
    keyed grants of registered ids, with their categories in declaration order.
    """
    index, key = _policy_index(policy), (user, operation)
    if (entry := index.decisions.get(key)) is None:
        grants = keyed_grants(_grants(index, index.roles.get(user, ())), (operation,))
        entry = grants, tuple(c for c in _CATEGORIES if c in grants)
        if user in policy.users and operation in policy.operations:
            index.decisions[key] = entry
    grants, categories = entry
    if Category.OBJECTS in grants or (obj.category or obj.text) in grants:
        return Decision.ALLOW
    if obj.is_category:
        return Decision.DENY
    if operation in _CREATION_OPERATIONS and obj._category in grants:
        return Decision.ALLOW
    held = any(obj in category_members(model, c) for c in categories)
    return Decision.ALLOW if held else Decision.DENY


class ViewModel(Model):
    """A role-specific projection of a model.

    A model, plus the names of variation points that visible relations
    reference without any permission admitting them (stubs), and
    per-element provenance, read-only: which permissions admitted each
    element. A view makes no well-formedness claim of its own; it is an
    induced substructure of a valid model. Provenance is compared, not hashed.
    """

    __slots__ = ()
    vp_stubs: frozenset[str] = frozenset()
    provenance: Mapping[str, frozenset[Permission]] = MappingProxyType({})

    def __hash__(self) -> int:
        return hash(self._values[:6])

    def element_ids(self) -> frozenset[str]:
        """Canonical ids of every visible element (stubs excluded)."""
        return frozenset(map(element_text, model_elements(self)))


def build_view(
    permissions: Iterable[Permission], model: Model, operations: Container[str] | None
) -> ViewModel:
    """What the permissions on ``operations`` (None: any) admit of ``model``."""
    granted = keyed_grants(permissions, operations)
    everywhere = granted.get(Category.OBJECTS, frozenset())
    index = _category_index(model)
    shown: dict[str, set] = defaultdict(set)  # component name -> visible elements
    provenance: dict[str, frozenset[Permission]] = {}
    carried = []  # each admitted part of the index, with the grants admitting it

    # A category that some grant admits enters whole, its members sharing one
    # admitting set; then each exact-id grant adds its element, if present.
    for category in index.members:
        admitting = frozenset(everywhere.union(granted.get(category, ())))
        if admitting:
            component, members, texts, *_ = part = index.part(category)
            shown[component] |= members
            provenance.update(dict.fromkeys(texts, admitting))
            carried.append((part, admitting))
    for key, perms in granted.items():
        if key in index.elements:
            component, members, *_ = part = index.part(key)
            shown[component] |= members
            provenance[key] = provenance.get(key, frozenset()).union(perms)
            carried.append((part, provenance[key]))

    # Visible relations carry their variant endpoints along, with the grants
    # that admitted their part (a relation in two parts carries the union);
    # variation-point endpoints no permission admits become kindless stubs.
    referenced_vps, unions = set(), {}  # unions: each union of two grant sets, once
    for (*_, variants, variant_texts, vps), perms in carried:
        shown["variants"] |= variants
        for text in variant_texts:
            held = provenance.setdefault(text, perms)
            if held is not perms:
                pair = held, perms
                provenance[text] = unions.get(pair) or unions.setdefault(pair, held | perms)
        referenced_vps |= vps

    return ViewModel(
        **{name: frozenset(shown[name]) for name in Model._fields},
        vp_stubs=frozenset(referenced_vps - {p.name for p in shown["variation_points"]}),
        provenance=MappingProxyType(provenance),
    )
