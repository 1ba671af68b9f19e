"""Variability-model value types, guarded mutations, and validation.

A model is an immutable snapshot of five component sets: variation points
(mandatory or optional), variants, variant-to-variation-point dependencies,
alternative groups, and requires/excludes constraints. Every mutation is a
pure function returning a new model; a precondition failure raises and the
input model is untouched.

Two validity tiers apply. Structural invariants hold after every successful
operation: the two variation-point kinds are disjoint, a variant carries at
most one variability dependency (a dependency or a group membership), the
excludes relation is symmetric, and an ordered endpoint pair belongs to at
most one constraint kind. Completeness (every variant bound to some
variation point) is intentionally weaker: it is only reported by
``validate_model`` so callers can build models element by element.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable

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


def check_name(name: str) -> str:
    """Validate an element name; returns it unchanged.

    Names must be non-empty strings without surrounding whitespace. The
    separator tokens used by canonical object identifiers are forbidden so
    that every identifier has exactly one parse.
    """
    if not isinstance(name, str) or not name:
        raise InvalidName("element name must be a non-empty string")
    if name != name.strip():
        raise InvalidName(f"element name {name!r} has leading or trailing whitespace")
    for token in _FORBIDDEN_IN_NAMES:
        if token in name:
            raise InvalidName(f"element name {name!r} may not contain {token!r}")
    return name


@dataclass(frozen=True)
class VariationPoint:
    name: str
    kind: VariabilityKind

    def __post_init__(self) -> None:
        check_name(self.name)


@dataclass(frozen=True)
class Variant:
    name: str

    def __post_init__(self) -> None:
        check_name(self.name)


@dataclass(frozen=True)
class Dependency:
    """A mandatory or optional binding of one variant to one variation point."""

    variant: str
    vp: str
    kind: VariabilityKind

    def __post_init__(self) -> None:
        check_name(self.variant)
        check_name(self.vp)


@dataclass(frozen=True)
class AltGroup:
    """An alternative group: >= 2 variants with a selection cardinality.

    Relational rules (member count, min <= max <= size, exclusive
    membership) are enforced by the guarded operations and re-checked by
    ``check_structure``; only type-level sanity is rejected here so that
    violating documents remain representable and reportable.
    """

    variants: frozenset[str]
    min_card: int
    max_card: int
    vp: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "variants", frozenset(self.variants))
        for member in self.variants:
            check_name(member)
        check_name(self.vp)
        for card in (self.min_card, self.max_card):
            if type(card) is not int or card < 0:  # bools are not cardinalities
                raise CardinalityInvalid("group cardinalities must be natural numbers")


@dataclass(frozen=True)
class EndpointRef:
    universe: Universe
    name: str

    def __post_init__(self) -> None:
        check_name(self.name)

    def __str__(self) -> str:
        return f"{self.universe.value}:{self.name}"

    def sort_key(self) -> tuple[str, str]:
        return (self.universe.value, self.name)


@dataclass(frozen=True)
class Constraint:
    """A directed requires or excludes edge between two endpoints.

    Excludes constraints are kept closed under symmetry: both ordered
    directions are present in the model whenever either is.
    """

    kind: ConstraintKind
    source: EndpointRef
    target: EndpointRef

    def sort_key(self) -> tuple[str, str, str, str, str]:
        return (self.kind.value, *self.source.sort_key(), *self.target.sort_key())

    def reversed(self) -> Constraint:
        return Constraint(self.kind, self.target, self.source)


@dataclass(frozen=True)
class Model:
    variation_points: frozenset[VariationPoint] = frozenset()
    variants: frozenset[Variant] = frozenset()
    dependencies: frozenset[Dependency] = frozenset()
    alt_groups: frozenset[AltGroup] = frozenset()
    constraints: frozenset[Constraint] = frozenset()


@dataclass(frozen=True, order=True)
class Violation:
    """One validation finding; violations are data, never exceptions."""

    code: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.subject}: {self.detail}"


def new_empty_model() -> Model:
    return Model()


# --- internal lookups -------------------------------------------------------

def vp_kind(model: Model, name: str) -> VariabilityKind | None:
    for point in model.variation_points:
        if point.name == name:
            return point.kind
    return None


def vp_names(model: Model, kind: VariabilityKind | None = None) -> frozenset[str]:
    return frozenset(
        p.name for p in model.variation_points if kind is None or p.kind == kind
    )


def variant_names(model: Model) -> frozenset[str]:
    return frozenset(v.name for v in model.variants)


def dependency_for(model: Model, variant: str) -> Dependency | None:
    for dep in model.dependencies:
        if dep.variant == variant:
            return dep
    return None


def group_at(model: Model, vp: str) -> AltGroup | None:
    for group in model.alt_groups:
        if group.vp == vp:
            return group
    return None


def group_of(model: Model, variant: str) -> AltGroup | None:
    for group in model.alt_groups:
        if variant in group.variants:
            return group
    return None


def endpoint_exists(model: Model, ref: EndpointRef) -> bool:
    if ref.universe is Universe.VARIANT:
        return ref.name in variant_names(model)
    return vp_kind(model, ref.name) is not None


def _describe(constraint: Constraint) -> str:
    return (
        f"constraint {constraint.kind.value} {constraint.source} -> {constraint.target}"
    )


def _ensure_unreferenced(model: Model, ref: EndpointRef) -> None:
    """Raise ElementInUse listing every relation that still references ``ref``."""
    if ref.universe is Universe.VP:
        what = "variation point"
        deps = [d for d in model.dependencies if d.vp == ref.name]
        groups = [g for g in model.alt_groups if g.vp == ref.name]
    else:
        what = "variant"
        deps = [d for d in model.dependencies if d.variant == ref.name]
        groups = [g for g in model.alt_groups if ref.name in g.variants]
    constraints = [c for c in model.constraints if ref in (c.source, c.target)]
    deps.sort(key=lambda d: (d.variant, d.vp))
    groups.sort(key=lambda g: g.vp)
    constraints.sort(key=Constraint.sort_key)
    blockers = [
        *(f"dependency {d.variant} -> {d.vp}" for d in deps),
        *(f"alternative group at {g.vp}" for g in groups),
        *(_describe(c) for c in constraints),
    ]
    if blockers:
        raise ElementInUse(
            f"{what} {ref.name!r} is still referenced by: " + "; ".join(blockers),
            tuple(blockers),
        )


# --- variation points -------------------------------------------------------

def _add_vp(model: Model, name: str, kind: VariabilityKind) -> Model:
    check_name(name)
    if vp_kind(model, name) is not None:
        raise DuplicateElement(f"variation point {name!r} already exists")
    return replace(
        model,
        variation_points=model.variation_points | {VariationPoint(name, kind)},
    )


def add_man_vp(model: Model, name: str) -> Model:
    """Add a mandatory variation point; the name must be new to both kinds."""
    return _add_vp(model, name, VariabilityKind.MANDATORY)


def add_opt_vp(model: Model, name: str) -> Model:
    """Add an optional variation point; the name must be new to both kinds."""
    return _add_vp(model, name, VariabilityKind.OPTIONAL)


def _remove_vp(model: Model, name: str, kind: VariabilityKind) -> Model:
    if name not in vp_names(model, kind):
        raise NotFound(f"no {kind.value} variation point named {name!r}")
    _ensure_unreferenced(model, EndpointRef(Universe.VP, name))
    return replace(
        model,
        variation_points=model.variation_points - {VariationPoint(name, kind)},
    )


def remove_man_vp(model: Model, name: str) -> Model:
    """Remove a mandatory variation point that no relation references."""
    return _remove_vp(model, name, VariabilityKind.MANDATORY)


def remove_opt_vp(model: Model, name: str) -> Model:
    """Remove an optional variation point that no relation references."""
    return _remove_vp(model, name, VariabilityKind.OPTIONAL)


# --- variants ----------------------------------------------------------------

def add_variant(model: Model, name: str) -> Model:
    """Add a variant. The model may be incomplete until a dependency binds it."""
    check_name(name)
    if name in variant_names(model):
        raise DuplicateElement(f"variant {name!r} already exists")
    return replace(model, variants=model.variants | {Variant(name)})


def remove_variant(model: Model, name: str) -> Model:
    if name not in variant_names(model):
        raise NotFound(f"no variant named {name!r}")
    _ensure_unreferenced(model, EndpointRef(Universe.VARIANT, name))
    return replace(model, variants=model.variants - {Variant(name)})


# --- dependencies ------------------------------------------------------------

def add_dependency(
    model: Model, variant: str, vp: str, kind: VariabilityKind
) -> Model:
    """Bind a free variant to a variation point, mandatorily or optionally."""
    check_name(variant)
    check_name(vp)
    if variant not in variant_names(model):
        raise NotFound(f"no variant named {variant!r}")
    if vp_kind(model, vp) is None:
        raise NotFound(f"no variation point named {vp!r}")
    existing = dependency_for(model, variant)
    if existing is not None:
        raise VariantAlreadyBound(
            f"variant {variant!r} already depends on {existing.vp!r}"
        )
    group = group_of(model, variant)
    if group is not None:
        raise VariantAlreadyBound(
            f"variant {variant!r} is a member of the group at {group.vp!r}"
        )
    return replace(
        model, dependencies=model.dependencies | {Dependency(variant, vp, kind)}
    )


def remove_dependency(model: Model, variant: str, vp: str) -> Model:
    """Drop the dependency between the two endpoints; the variant stays."""
    for dep in model.dependencies:
        if dep.variant == variant and dep.vp == vp:
            return replace(model, dependencies=model.dependencies - {dep})
    raise NotFound(f"no dependency {variant!r} -> {vp!r}")


# --- alternative groups ------------------------------------------------------

def add_alt_group(
    model: Model,
    variants: Iterable[str],
    min_card: int,
    max_card: int,
    vp: str,
) -> Model:
    members = frozenset(variants)
    for member in members:
        check_name(member)
    check_name(vp)
    missing = sorted(members - variant_names(model))
    if missing:
        raise NotFound(f"no variant named {missing[0]!r}")
    if vp_kind(model, vp) is None:
        raise NotFound(f"no variation point named {vp!r}")
    if len(members) < 2:
        raise CardinalityInvalid("an alternative group needs at least two variants")
    if min_card < 0 or max_card < 0 or not min_card <= max_card <= len(members):
        raise CardinalityInvalid(
            f"need 0 <= min <= max <= {len(members)}, got ({min_card}, {max_card})"
        )
    for member in sorted(members):
        if dependency_for(model, member) is not None:
            raise VariantAlreadyBound(f"variant {member!r} already has a dependency")
        other = group_of(model, member)
        if other is not None:
            raise VariantAlreadyBound(
                f"variant {member!r} is already in the group at {other.vp!r}"
            )
    if group_at(model, vp) is not None:
        raise GroupExists(f"variation point {vp!r} already has an alternative group")
    return replace(
        model,
        alt_groups=model.alt_groups | {AltGroup(members, min_card, max_card, vp)},
    )


def remove_alt_group(model: Model, vp: str) -> Model:
    """Drop the group targeting ``vp``; member variants stay in the model."""
    group = group_at(model, vp)
    if group is None:
        raise NotFound(f"no alternative group at {vp!r}")
    return replace(model, alt_groups=model.alt_groups - {group})


# --- constraints --------------------------------------------------------------

def add_constraint(
    model: Model, kind: ConstraintKind, source: EndpointRef, target: EndpointRef
) -> Model:
    """Add a requires edge, or an excludes edge closed in both directions."""
    if not endpoint_exists(model, source):
        raise NotFound(f"no {source.universe.value} named {source.name!r}")
    if not endpoint_exists(model, target):
        raise NotFound(f"no {target.universe.value} named {target.name!r}")
    if source == target:
        raise SelfConstraint(f"constraint endpoints are identical: {source.name!r}")
    pairs = {(c.source, c.target) for c in model.constraints}
    if (source, target) in pairs:
        raise ConstraintConflict(
            f"the pair {source.name!r} -> {target.name!r} is already constrained"
        )
    added = {Constraint(kind, source, target)}
    if kind is ConstraintKind.EXCLUDES:
        if (target, source) in pairs:
            raise ConstraintConflict(
                f"the pair {target.name!r} -> {source.name!r} is already constrained"
            )
        added.add(Constraint(kind, target, source))
    return replace(model, constraints=model.constraints | added)


def remove_constraint(
    model: Model, kind: ConstraintKind, source: EndpointRef, target: EndpointRef
) -> Model:
    """Remove a constraint; for excludes both directions go at once."""
    wanted = Constraint(kind, source, target)
    if wanted not in model.constraints:
        raise NotFound(
            f"no {kind.value} constraint {source.name!r} -> {target.name!r}"
        )
    removed = {wanted}
    if kind is ConstraintKind.EXCLUDES:
        removed.add(wanted.reversed())
    return replace(model, constraints=model.constraints - removed)


# --- validation ----------------------------------------------------------------

def check_structure(model: Model) -> list[Violation]:
    """Report every structural-invariant violation, sorted.

    This is the defense-in-depth re-check: models produced by the guarded
    operations always pass, but hand-built or deserialized models may not.
    """
    found: set[Violation] = set()
    man = vp_names(model, VariabilityKind.MANDATORY)
    opt = vp_names(model, VariabilityKind.OPTIONAL)
    all_vps = man | opt
    variants = variant_names(model)

    for name in man & opt:
        found.add(
            Violation(
                "vp-kind-overlap", name, "listed as both mandatory and optional"
            )
        )

    def dangling(subject: str, owner: str, what: str, name: str, known) -> None:
        if name not in known:
            detail = f"{owner} names unknown {what} {name!r}"
            found.add(Violation("dangling-reference", subject, detail))

    bindings: dict[str, int] = {}
    for dep in model.dependencies:
        subject = f"{dep.variant} -> {dep.vp}"
        dangling(subject, "dependency", "variant", dep.variant, variants)
        dangling(subject, "dependency", "variation point", dep.vp, all_vps)
        bindings[dep.variant] = bindings.get(dep.variant, 0) + 1

    seen_group_vps: set[str] = set()
    for group in model.alt_groups:
        label = f"group at {group.vp}"
        if group.vp in seen_group_vps:
            found.add(
                Violation(
                    "duplicate-group-target",
                    group.vp,
                    "more than one alternative group targets this variation point",
                )
            )
        seen_group_vps.add(group.vp)
        dangling(label, "group", "variation point", group.vp, all_vps)
        for member in group.variants:
            dangling(label, "group", "variant", member, variants)
            bindings[member] = bindings.get(member, 0) + 1
        if len(group.variants) < 2:
            found.add(
                Violation("group-too-small", label, "fewer than two member variants")
            )
        if not group.min_card <= group.max_card <= len(group.variants):
            found.add(
                Violation(
                    "group-cardinality",
                    label,
                    f"need min <= max <= {len(group.variants)}, "
                    f"got ({group.min_card}, {group.max_card})",
                )
            )

    for name, count in bindings.items():
        if count > 1:
            found.add(
                Violation(
                    "variant-multiply-bound",
                    name,
                    f"bound by {count} variability dependencies",
                )
            )

    pairs: dict[tuple[EndpointRef, EndpointRef], set[ConstraintKind]] = {}
    for constraint in model.constraints:
        label = _describe(constraint)
        for ref in (constraint.source, constraint.target):
            known = variants if ref.universe is Universe.VARIANT else all_vps
            dangling(label, "constraint", ref.universe.value, ref.name, known)
        if constraint.source == constraint.target:
            found.add(Violation("self-constraint", label, "endpoints are identical"))
        pairs.setdefault((constraint.source, constraint.target), set()).add(
            constraint.kind
        )
        if (
            constraint.kind is ConstraintKind.EXCLUDES
            and constraint.reversed() not in model.constraints
        ):
            found.add(
                Violation(
                    "excludes-asymmetry",
                    label,
                    "excludes pair present in one direction only",
                )
            )

    for (source, target), kinds in pairs.items():
        if len(kinds) > 1:
            found.add(
                Violation(
                    "constraint-exclusivity",
                    f"{source} -> {target}",
                    "ordered pair claimed by both requires and excludes",
                )
            )

    return sorted(found)


def validate_model(model: Model) -> list[Violation]:
    """Full validation: structural invariants plus completeness."""
    found = set(check_structure(model))
    bound: set[str] = {dep.variant for dep in model.dependencies}
    for group in model.alt_groups:
        bound |= group.variants
    for name in variant_names(model) - bound:
        found.add(
            Violation(
                "variant-without-dependency",
                name,
                "variant is not part of any variability dependency",
            )
        )
    return sorted(found)


# --- deterministic queries ------------------------------------------------------

def list_vps(model: Model, kind: VariabilityKind | None = None) -> list[str]:
    return sorted(vp_names(model, kind))


def list_variants(model: Model) -> list[str]:
    return sorted(variant_names(model))


def list_dependencies(model: Model) -> list[Dependency]:
    return sorted(model.dependencies, key=lambda d: (d.variant, d.vp, d.kind.value))


def list_alt_groups(model: Model) -> list[AltGroup]:
    return sorted(model.alt_groups, key=lambda g: (g.vp, sorted(g.variants)))


def list_constraints(
    model: Model, kind: ConstraintKind | None = None
) -> list[Constraint]:
    picked = [c for c in model.constraints if kind is None or c.kind == kind]
    return sorted(picked, key=Constraint.sort_key)
