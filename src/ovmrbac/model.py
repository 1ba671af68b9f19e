"""Variability-model value types, guarded mutations, and validation.

A model is an immutable snapshot of five component sets: variation points
(mandatory or optional), variants, variant-to-variation-point dependencies,
alternative groups, and requires/excludes constraints. Every mutation is a
pure function returning a new model; a precondition failure raises and the
input model is untouched. Values check their field types by ``check_type``.

Two validity tiers apply. Structural invariants hold after every successful
operation: the two variation-point kinds are disjoint, a variant carries at
most one variability dependency (a dependency or a group membership), the
excludes relation is symmetric, and an ordered endpoint pair belongs to at
most one constraint kind. Completeness (every variant bound to some
variation point) is intentionally weaker: it is only reported by
``validate_model`` so callers can build models element by element.

Four rules are each stated once, and both the guards and the validators use
them: whether an endpoint exists (``_exists``), which endpoints the relations
name (``references``), what binds a variant (``_binding`` for one variant,
``_binding_counts`` for all), and which kinds of constraint claim an ordered
pair (``_claims``); a fifth, ``Constraint.closure``, states excludes symmetry.
Other modules call these rules instead of restating them: ``references`` (what
a view carries), ``check_type`` and ``group_members`` (request arguments),
``dependency_between`` (removal targets), ``closure`` (loading), and each
component's ``sort_key``, ``list_*`` or ``stored_constraints`` (documents, DOT).
"""

from __future__ import annotations

from _collections import _tuplegetter  # the field accessor of collections.namedtuple
from collections import Counter
from enum import Enum
from typing import Iterable, Iterator

from .errors import (
    CardinalityInvalid,
    ConstraintConflict,
    DuplicateElement,
    ElementInUse,
    GroupExists,
    InvalidName,
    NotFound,
    SelfConstraint,
    VariantAlreadyBound,
)


class VariabilityKind(Enum):
    """Mandatory/optional flavor shared by variation points and dependencies."""

    MANDATORY = "mandatory"
    OPTIONAL = "optional"


class ConstraintKind(Enum):
    REQUIRES = "requires"
    EXCLUDES = "excludes"


class Universe(Enum):
    """Which name universe a constraint endpoint lives in."""

    VARIANT = "variant"
    VP = "vp"


# Substrings that would make the canonical object-id renderings ambiguous.
_FORBIDDEN_IN_NAMES = (":", "->", "\n", "\r")


class _Fields:
    """What records and snapshots share. A class's fields are its annotations,
    after those of its bases, with class attributes as defaults; ``__new__``
    may compute ``_derived`` values after the fields, read by name as they are."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    _derived: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = vars(cls).get("__annotations__", {})
        names = (*cls._fields, *own)
        cls._fields = tuple(name for name in names if name not in cls._derived)
        cls._defaults = {**cls._defaults, **{n: vars(cls)[n] for n in own if n in vars(cls)}}
        for index, name in enumerate(names):
            setattr(cls, name, cls._getter(index))

    @classmethod
    def _bind(cls, args: tuple, named: dict) -> tuple:
        """The values of ``args``, then of the other fields by name or default."""
        values = {**cls._defaults, **dict(zip(cls._fields, args)), **named}
        if len(args) > len(cls._fields) or values.keys() != set(cls._fields):
            raise TypeError(f"{cls.__name__} takes the fields {cls._fields}")
        return tuple(map(values.get, cls._fields))

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({shown})"

    def _replace(self, **changes):
        """A copy with the named fields changed, checked as a new value is."""
        values = list(map(changes.pop, self._fields, self))  # before the rest
        return type(self)(*values, **changes)


class Record(_Fields, tuple):
    """A value that is a tuple of its fields, each read by name: the base of
    every value type but the snapshots. A subclass sets ``__slots__ = ()`` and
    checks its arguments in its own ``__new__``. A record equals only a record
    of its own type, and hashes as the tuple of its values."""

    __slots__ = ()
    _getter = staticmethod(lambda index: _tuplegetter(index, None))

    def __new__(cls, *args, **named):
        if named or len(args) != len(cls._fields):  # the rest by name, else by default
            args = cls._bind(args, named)
        return tuple.__new__(cls, args)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    __hash__ = tuple.__hash__

    def __getnewargs__(self) -> tuple:
        return self[:len(self._fields)]


class Snapshot(_Fields):
    """A value that can be weakly referenced, as no tuple can: ``Model``,
    ``ViewModel`` and ``Policy``, which callers may track by weak reference.
    It keeps its values in one tuple, and equals and hashes as a record does."""

    __slots__ = ("_values", "__weakref__")
    _getter = staticmethod(lambda index: property(lambda self: self._values[index]))

    def __init__(self, *args, **named) -> None:
        if named or len(args) != len(self._fields):  # the rest by name, else by default
            args = self._bind(args, named)
        object.__setattr__(self, "_values", args)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __iter__(self) -> Iterator:
        return iter(self._values)

    def __reduce__(self) -> tuple:
        return type(self), self._values


def check_name(name: str) -> str:
    """Validate an element name; returns it unchanged.

    Names are non-empty strings, without surrounding whitespace, that UTF-8 can
    encode. The separator tokens of canonical object identifiers are forbidden
    so that every identifier has exactly one parse.
    """
    if not isinstance(name, str) or not name:
        raise InvalidName("element name must be a non-empty string")
    if name != name.strip():
        raise InvalidName(f"element name {name!r} has leading or trailing whitespace")
    if not name.isascii() and any("\ud800" <= c <= "\udfff" for c in name):
        raise InvalidName(f"element name {name!r} cannot be encoded as UTF-8")
    for token in _FORBIDDEN_IN_NAMES:
        if token in name:
            raise InvalidName(f"element name {name!r} may not contain {token!r}")
    return name


def check_type(value, cls: type):
    """Validate that ``value`` is a ``cls``; returns it unchanged."""
    if not isinstance(value, cls):
        raise ValueError(f"expected a {cls.__name__}, got {value!r}")
    return value


class VariationPoint(Record):
    __slots__ = ()
    name: str
    kind: VariabilityKind

    def __new__(cls, name: str, kind: VariabilityKind):
        return tuple.__new__(cls, (check_name(name), check_type(kind, VariabilityKind)))

    def sort_key(self) -> tuple[str, str]:
        return (self.name, self.kind._value_)


class Variant(Record):
    __slots__ = ()
    name: str

    def __new__(cls, name: str):
        return tuple.__new__(cls, (check_name(name),))


class Dependency(Record):
    """A mandatory or optional binding of one variant to one variation point."""

    __slots__ = ()
    variant: str
    vp: str
    kind: VariabilityKind

    def __new__(cls, variant: str, vp: str, kind: VariabilityKind):
        variant, vp = check_name(variant), check_name(vp)
        return tuple.__new__(cls, (variant, vp, check_type(kind, VariabilityKind)))

    def sort_key(self) -> tuple[str, str, str]:
        return (self.variant, self.vp, self.kind._value_)


class AltGroup(Record):
    """An alternative group: >= 2 variants with a selection cardinality.

    Relational rules (member count, min <= max <= size, exclusive
    membership) are enforced by the guarded operations and re-checked by
    ``check_structure``; only type-level sanity is rejected here so that
    violating documents remain representable and reportable.
    """

    __slots__ = ()
    variants: frozenset[str]
    min_card: int
    max_card: int
    vp: str

    def __new__(cls, variants: Iterable[str], min_card: int, max_card: int, vp: str):
        variants = group_members(variants)
        check_name(vp)
        for card in (min_card, max_card):
            if type(card) is not int or card < 0:  # bools are not cardinalities
                raise CardinalityInvalid(_NOT_NATURAL)
        return tuple.__new__(cls, (variants, min_card, max_card, vp))

    def sort_key(self) -> tuple[str, list[str], int, int]:
        return (self.vp, sorted(self.variants), self.min_card, self.max_card)


_NOT_NATURAL = "group cardinalities must be natural numbers"


def group_members(variants: Iterable[str]) -> frozenset[str]:
    """The members of an alternative group: a collection (not a string) of names."""
    if isinstance(variants, str) or not hasattr(variants, "__iter__"):
        raise InvalidName(
            f"group variants must be a collection of names, got {variants!r}"
        )
    return frozenset(map(check_name, variants))


class EndpointRef(Record):
    __slots__ = ()
    universe: Universe
    name: str

    def __new__(cls, universe: Universe, name: str):
        return tuple.__new__(cls, (check_type(universe, Universe), check_name(name)))

    def __str__(self) -> str:
        return f"{self.universe._value_}:{self.name}"


class Constraint(Record):
    """A directed requires or excludes edge between two endpoints.

    Excludes constraints are kept closed under symmetry: both ordered
    directions are present in the model whenever either is (``closure``).
    """

    __slots__ = ()
    kind: ConstraintKind
    source: EndpointRef
    target: EndpointRef

    def __new__(cls, kind: ConstraintKind, source: EndpointRef, target: EndpointRef):
        kind, source = check_type(kind, ConstraintKind), check_type(source, EndpointRef)
        return tuple.__new__(cls, (kind, source, check_type(target, EndpointRef)))

    def sort_key(self) -> tuple[str, str, str, str, str]:
        source, target = self.source, self.target
        return (self.kind._value_, source.universe._value_, source.name,
                target.universe._value_, target.name)

    def reversed(self) -> Constraint:
        return Constraint(self.kind, self.target, self.source)

    def closure(self) -> tuple[Constraint, ...]:
        """What a model holding this constraint holds: itself, then its mirror
        for excludes. This is the one statement of excludes symmetry."""
        if self.kind is ConstraintKind.EXCLUDES:
            return (self, self.reversed())
        return (self,)


class Model(Snapshot):
    __slots__ = ()
    variation_points: frozenset[VariationPoint] = frozenset()
    variants: frozenset[Variant] = frozenset()
    dependencies: frozenset[Dependency] = frozenset()
    alt_groups: frozenset[AltGroup] = frozenset()
    constraints: frozenset[Constraint] = frozenset()


class Violation(Record):
    """One validation finding; violations are data, never exceptions. They
    sort as tuples: by code, then subject, then detail."""

    __slots__ = ()
    code: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.subject}: {self.detail}"


def new_empty_model() -> Model:
    return Model()


# --- the four structural rules ---------------------------------------------
#
# A guard raises from a rule for the elements its operation touches;
# check_structure and validate_model report from it over every element. Text
# is formatted only for what is raised or reported.

_Relation = Dependency | AltGroup | Constraint

_KINDS = tuple(ConstraintKind)
_VARIABILITY = tuple(VariabilityKind)
_NOUNS = {Universe.VARIANT: "variant", Universe.VP: "variation point"}
# How reports name each kind of relation, and the universes of its endpoints.
_OWNERS = {
    Dependency: ("dependency", _NOUNS),
    AltGroup: ("group", _NOUNS),
    Constraint: ("constraint", {universe: universe.value for universe in Universe}),
}
# Removal blockers: each kind of relation in turn, with its prefix.
_BLOCKERS = ((Dependency, "dependency "), (AltGroup, "alternative "), (Constraint, ""))


def _subject(relation: _Relation) -> str:
    """How reports name a relation."""
    if type(relation) is Dependency:
        return f"{relation.variant} -> {relation.vp}"
    if type(relation) is AltGroup:
        return f"group at {relation.vp}"
    return f"constraint {relation.kind.value} {relation.source} -> {relation.target}"


def _exists(model: Model, universe: Universe, name: str) -> bool:
    """Rule 1: ``name`` is a variant, or a variation point of either kind.

    No element carries a name that ``check_name`` refuses.
    """
    try:
        if universe is Universe.VARIANT:
            return Variant(name) in model.variants
        points = model.variation_points
        return (
            VariationPoint(name, VariabilityKind.MANDATORY) in points
            or VariationPoint(name, VariabilityKind.OPTIONAL) in points
        )
    except InvalidName:
        return False


def _require(model: Model, owner: type, universe: Universe, name: str) -> None:
    """Rule 1 as a guard, naming the universe as reports about ``owner`` do."""
    if not _exists(model, universe, name):
        raise NotFound(f"no {_OWNERS[owner][1][universe]} named {name!r}")


def references(model: Model, universe: Universe) -> Iterator[tuple[str, _Relation]]:
    """Rule 2: (name, relation) for each endpoint in ``universe`` that a
    dependency, an alternative group or a constraint names."""
    if universe is Universe.VARIANT:
        yield from ((dep.variant, dep) for dep in model.dependencies)
        yield from ((m, group) for group in model.alt_groups for m in group.variants)
    else:
        yield from ((dep.vp, dep) for dep in model.dependencies)
        yield from ((group.vp, group) for group in model.alt_groups)
    for constraint in model.constraints:
        if constraint.source.universe is universe:
            yield constraint.source.name, constraint
        if constraint.target.universe is universe:
            yield constraint.target.name, constraint


def _ensure_unreferenced(model: Model, universe: Universe, name: str) -> None:
    """Rule 2 as a guard: raise ElementInUse listing every relation naming it."""
    found = {rel for named, rel in references(model, universe) if named == name}
    blockers = tuple(
        prefix + _subject(rel)
        for owner, prefix in _BLOCKERS
        for rel in sorted((r for r in found if type(r) is owner), key=owner.sort_key)
    )
    if blockers:
        what = f"{_NOUNS[universe]} {name!r} is still referenced by: "
        raise ElementInUse(what + "; ".join(blockers), blockers)


def _binding(model: Model, variant: str) -> Dependency | AltGroup | None:
    """Rule 3: the dependency, or else the alternative group, binding ``variant``."""
    for dep in model.dependencies:
        if dep.variant == variant:
            return dep
    for group in model.alt_groups:
        if variant in group.variants:
            return group
    return None


def _binding_counts(model: Model) -> Counter[str]:
    """Rule 3 over the whole model: how many relations bind each variant name."""
    counts = Counter(dep.variant for dep in model.dependencies)
    for group in model.alt_groups:
        counts.update(group.variants)
    return counts


def _claims(model: Model, a: EndpointRef, b: EndpointRef) -> list[ConstraintKind]:
    """Rule 4: the kinds of constraint that claim the ordered pair ``a -> b``."""
    return [k for k in _KINDS if Constraint(k, a, b) in model.constraints]


# --- variation points -------------------------------------------------------

def _add_vp(model: Model, name: str, kind: VariabilityKind) -> Model:
    point = VariationPoint(name, kind)  # an invalid name is refused first
    if _exists(model, Universe.VP, name):
        raise DuplicateElement(f"variation point {name!r} already exists")
    return model._replace(variation_points=model.variation_points | {point})


def add_man_vp(model: Model, name: str) -> Model:
    """Add a mandatory variation point; the name must be new to both kinds."""
    return _add_vp(model, name, VariabilityKind.MANDATORY)


def add_opt_vp(model: Model, name: str) -> Model:
    """Add an optional variation point; the name must be new to both kinds."""
    return _add_vp(model, name, VariabilityKind.OPTIONAL)


def _remove_vp(model: Model, name: str, kind: VariabilityKind) -> Model:
    point = VariationPoint(name, kind) if _exists(model, Universe.VP, name) else None
    if point not in model.variation_points:
        raise NotFound(f"no {kind.value} variation point named {name!r}")
    _ensure_unreferenced(model, Universe.VP, name)
    return model._replace(variation_points=model.variation_points - {point})


def remove_man_vp(model: Model, name: str) -> Model:
    """Remove a mandatory variation point that no relation references."""
    return _remove_vp(model, name, VariabilityKind.MANDATORY)


def remove_opt_vp(model: Model, name: str) -> Model:
    """Remove an optional variation point that no relation references."""
    return _remove_vp(model, name, VariabilityKind.OPTIONAL)


# --- variants ----------------------------------------------------------------

def add_variant(model: Model, name: str) -> Model:
    """Add a variant. The model may be incomplete until a dependency binds it."""
    variant = Variant(name)  # an invalid name is refused first
    if _exists(model, Universe.VARIANT, name):
        raise DuplicateElement(f"variant {name!r} already exists")
    return model._replace(variants=model.variants | {variant})


def remove_variant(model: Model, name: str) -> Model:
    if not _exists(model, Universe.VARIANT, name):
        raise NotFound(f"no variant named {name!r}")
    _ensure_unreferenced(model, Universe.VARIANT, name)
    return model._replace(variants=model.variants - {Variant(name)})


# --- dependencies ------------------------------------------------------------

def add_dependency(
    model: Model, variant: str, vp: str, kind: VariabilityKind
) -> Model:
    """Bind a free variant to a variation point, mandatorily or optionally."""
    dep = Dependency(variant, vp, kind)  # a wrong-typed field is refused first
    _require(model, Dependency, Universe.VARIANT, variant)
    _require(model, Dependency, Universe.VP, vp)
    bound = _binding(model, variant)
    if type(bound) is Dependency:
        raise VariantAlreadyBound(
            f"variant {variant!r} already depends on {bound.vp!r}"
        )
    if bound is not None:
        raise VariantAlreadyBound(
            f"variant {variant!r} is a member of the group at {bound.vp!r}"
        )
    return model._replace(dependencies=model.dependencies | {dep})


def dependency_between(model: Model, variant: str, vp: str) -> Dependency | None:
    """The dependency from ``variant`` to ``vp``: a probe of each kind in turn."""
    try:
        for kind in _VARIABILITY:
            if (dep := Dependency(variant, vp, kind)) in model.dependencies:
                return dep
    except InvalidName:  # no dependency carries a name that check_name refuses
        pass
    return None


def remove_dependency(model: Model, variant: str, vp: str) -> Model:
    """Drop the dependency between the two endpoints; the variant stays."""
    dep = dependency_between(model, variant, vp)
    if dep is None:
        raise NotFound(f"no dependency {variant!r} -> {vp!r}")
    return model._replace(dependencies=model.dependencies - {dep})


# --- alternative groups ------------------------------------------------------

def add_alt_group(
    model: Model,
    variants: Iterable[str],
    min_card: int,
    max_card: int,
    vp: str,
) -> Model:
    members = group_members(variants)
    check_name(vp)
    for member in sorted(members):
        _require(model, AltGroup, Universe.VARIANT, member)
    _require(model, AltGroup, Universe.VP, vp)
    if len(members) < 2:
        raise CardinalityInvalid("an alternative group needs at least two variants")
    try:
        fits = 0 <= min_card <= max_card <= len(members)
    except TypeError:  # not numbers at all
        raise CardinalityInvalid(_NOT_NATURAL) from None
    if not fits:
        raise CardinalityInvalid(
            f"need 0 <= min <= max <= {len(members)}, got ({min_card!r}, {max_card!r})"
        )
    for member in sorted(members):
        bound = _binding(model, member)
        if type(bound) is Dependency:
            raise VariantAlreadyBound(f"variant {member!r} already has a dependency")
        if bound is not None:
            raise VariantAlreadyBound(
                f"variant {member!r} is already in the group at {bound.vp!r}"
            )
    if any(group.vp == vp for group in model.alt_groups):
        raise GroupExists(f"variation point {vp!r} already has an alternative group")
    return model._replace(
        alt_groups=model.alt_groups | {AltGroup(members, min_card, max_card, vp)}
    )


def remove_alt_group(model: Model, vp: str) -> Model:
    """Drop the group targeting ``vp``; member variants stay in the model."""
    for group in model.alt_groups:
        if group.vp == vp:
            return model._replace(alt_groups=model.alt_groups - {group})
    raise NotFound(f"no alternative group at {vp!r}")


# --- constraints --------------------------------------------------------------

def add_constraint(
    model: Model, kind: ConstraintKind, source: EndpointRef, target: EndpointRef
) -> Model:
    """Add a constraint's closure; no kind may claim any of its pairs yet."""
    added = Constraint(kind, source, target).closure()  # a wrong-typed field is refused first
    for end in (source, target):
        _require(model, Constraint, end.universe, end.name)
    if source == target:
        raise SelfConstraint(f"constraint endpoints are identical: {source.name!r}")
    for c in added:
        if _claims(model, c.source, c.target):
            pair = f"{c.source.name!r} -> {c.target.name!r}"
            raise ConstraintConflict(f"the pair {pair} is already constrained")
    return model._replace(constraints=model.constraints.union(added))


def remove_constraint(
    model: Model, kind: ConstraintKind, source: EndpointRef, target: EndpointRef
) -> Model:
    """Remove a constraint's closure; for excludes both directions go at once."""
    wanted = Constraint(kind, source, target)
    if wanted not in model.constraints:
        raise NotFound(
            f"no {kind.value} constraint {source.name!r} -> {target.name!r}"
        )
    return model._replace(constraints=model.constraints.difference(wanted.closure()))


# --- validation ----------------------------------------------------------------

def check_structure(model: Model) -> list[Violation]:
    """Report every structural-invariant violation, sorted.

    This is the defense-in-depth re-check: models produced by the guarded
    operations always pass, but hand-built or deserialized models may not.
    """
    found: set[Violation] = set()

    def report(code: str, subject: str, detail: str) -> None:
        found.add(Violation(code, subject, detail))

    man = vp_names(model, VariabilityKind.MANDATORY)
    for name in man & vp_names(model, VariabilityKind.OPTIONAL):
        report("vp-kind-overlap", name, "listed as both mandatory and optional")

    for universe in Universe:
        exists: dict[str, bool] = {}  # each name is probed once
        for name, relation in references(model, universe):
            if name not in exists:
                exists[name] = _exists(model, universe, name)
            if not exists[name]:
                owner, nouns = _OWNERS[type(relation)]
                detail = f"{owner} names unknown {nouns[universe]} {name!r}"
                report("dangling-reference", _subject(relation), detail)

    for name, count in _binding_counts(model).items():
        if count > 1:
            detail = f"bound by {count} variability dependencies"
            report("variant-multiply-bound", name, detail)

    targets = Counter(group.vp for group in model.alt_groups)
    for group in model.alt_groups:
        label, size = _subject(group), len(group.variants)
        if targets[group.vp] > 1:
            detail = "more than one alternative group targets this variation point"
            report("duplicate-group-target", group.vp, detail)
        if size < 2:
            report("group-too-small", label, "fewer than two member variants")
        if not group.min_card <= group.max_card <= size:
            cards = f"({group.min_card}, {group.max_card})"
            detail = f"need min <= max <= {size}, got {cards}"
            report("group-cardinality", label, detail)

    for c in model.constraints:
        if c.source == c.target:
            report("self-constraint", _subject(c), "endpoints are identical")
        if not model.constraints.issuperset(c.closure()[1:]):  # c itself is held
            detail = "excludes pair present in one direction only"
            report("excludes-asymmetry", _subject(c), detail)
        # a pair that both kinds claim holds a requires constraint
        pair = (c.source, c.target)
        if c.kind is ConstraintKind.REQUIRES and len(_claims(model, *pair)) > 1:
            detail = "ordered pair claimed by both requires and excludes"
            report("constraint-exclusivity", f"{c.source} -> {c.target}", detail)

    return sorted(found)


def validate_model(model: Model) -> list[Violation]:
    """Full validation: structural invariants plus completeness."""
    bound = _binding_counts(model)
    detail = "variant is not part of any variability dependency"
    free = [
        Violation("variant-without-dependency", variant.name, detail)
        for variant in model.variants
        if variant.name not in bound
    ]
    return sorted(check_structure(model) + free)


# --- deterministic queries ------------------------------------------------------

def vp_names(model: Model, kind: VariabilityKind | None = None) -> frozenset[str]:
    return frozenset(
        p.name for p in model.variation_points if kind is None or p.kind == kind
    )


def list_vps(model: Model, kind: VariabilityKind | None = None) -> list[str]:
    return sorted(vp_names(model, kind))


def list_variants(model: Model) -> list[str]:
    return sorted(v.name for v in model.variants)


def list_dependencies(model: Model) -> list[Dependency]:
    return sorted(model.dependencies, key=Dependency.sort_key)


def list_alt_groups(model: Model) -> list[AltGroup]:
    return sorted(model.alt_groups, key=AltGroup.sort_key)


def list_constraints(
    model: Model, kind: ConstraintKind | None = None
) -> list[Constraint]:
    picked = [c for c in model.constraints if kind is None or c.kind == kind]
    return sorted(picked, key=Constraint.sort_key)


def stored_constraints(model: Model) -> list[Constraint]:
    """Sorted constraints as documents and DOT text list them: each held closure
    once, by its least held member (``sort_key``); loading adds closures back."""
    held = {c.sort_key(): c for c in model.constraints}
    return [
        held[key] for key in sorted(held)
        if held[key].kind is not ConstraintKind.EXCLUDES  # a closure of one
        or key <= (mirror := (key[0], *key[3:], *key[1:3])) or mirror not in held
    ]
