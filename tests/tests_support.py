"""Shared generators, independent predicates, and brute-force oracles.

Everything here is deliberately written from first principles against the
raw data shapes, not by calling the library's own checkers, so the test
suites compare two independent routes to the same answer.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from ovmrbac import (
    AltGroup,
    Constraint,
    ConstraintKind,
    Dependency,
    EndpointRef,
    Model,
    OvmRbacError,
    Universe,
    VariabilityKind,
    VariationPoint,
    Variant,
    new_empty_model,
)
from ovmrbac import model as ovm
from ovmrbac.session import OpRequest, apply_request

MAN = VariabilityKind.MANDATORY
OPT = VariabilityKind.OPTIONAL
V = Universe.VARIANT
VP = Universe.VP

VP_POOL = (
    "Authentication VP", "Grid Deployment Node VP", "Grid Deployment VP",
    "OS VP", "Processor VP", "CPU VP", "Linux VP", "Library Required VP",
    "Alpha VP", "Beta VP",
)
VARIANT_POOL = (
    "Kerberos", "Password", "SSLAuth", "Authentication", "OS",
    "File Size Limit", "Processor", "Sc.Linux", "Linux", "Windows", "GPU",
    "CPU", "x32", "x64", "Matlab", "Grid Deployment Node", "Library Required",
    "gamma", "delta",
)


# --- independent structural predicates (first-principles re-statement) ------

def broken_structural_predicates(model: Model) -> list[str]:
    """Names of the core structural invariants the model violates."""
    broken = []
    man = {p.name for p in model.variation_points if p.kind is MAN}
    opt = {p.name for p in model.variation_points if p.kind is OPT}
    if man & opt:
        broken.append("vp-disjointness")

    counts: dict[str, int] = {}
    for dep in model.dependencies:
        counts[dep.variant] = counts.get(dep.variant, 0) + 1
    for group in model.alt_groups:
        for member in group.variants:
            counts[member] = counts.get(member, 0) + 1
    if any(n > 1 for n in counts.values()):
        broken.append("one-dependency-per-variant")

    excludes = {
        (c.source, c.target)
        for c in model.constraints
        if c.kind is ConstraintKind.EXCLUDES
    }
    if any((b, a) not in excludes for a, b in excludes):
        broken.append("excludes-symmetry")

    requires = {
        (c.source, c.target)
        for c in model.constraints
        if c.kind is ConstraintKind.REQUIRES
    }
    if requires & excludes:
        broken.append("constraint-exclusivity")
    return broken


# --- random request generation ------------------------------------------------

def random_model_request(
    rng: random.Random, vp_pool=VP_POOL, variant_pool=VARIANT_POOL
) -> OpRequest:
    """A random request naming variation points and variants from the pools."""
    op = rng.choice(
        [
            "addManVP", "addOptVP", "removeManVP", "removeOptVP",
            "addVariant", "removeVariant",
            "addDependency", "addDependency", "removeDependency",
            "addAltGroup", "removeAltGroup",
            "addConstraint", "addConstraint", "removeConstraint",
        ]
    )
    vp = rng.choice(vp_pool)
    variant = rng.choice(variant_pool)
    if op in ("addManVP", "addOptVP", "removeManVP", "removeOptVP", "removeAltGroup"):
        return OpRequest(op, (vp,))
    if op in ("addVariant", "removeVariant"):
        return OpRequest(op, (variant,))
    if op == "addDependency":
        return OpRequest(op, (variant, vp, rng.choice((MAN, OPT))))
    if op == "removeDependency":
        return OpRequest(op, (variant, vp))
    if op == "addAltGroup":
        size = rng.randint(1, min(4, len(variant_pool)))
        members = frozenset(rng.sample(variant_pool, size))
        max_card = rng.randint(0, len(members) + 1)
        min_card = rng.randint(0, max_card)
        return OpRequest(op, (members, min_card, max_card, vp))
    kind = rng.choice((ConstraintKind.REQUIRES, ConstraintKind.EXCLUDES))
    endpoints = []
    for _ in range(2):
        if rng.random() < 0.5:
            endpoints.append(EndpointRef(V, rng.choice(variant_pool)))
        else:
            endpoints.append(EndpointRef(VP, rng.choice(vp_pool)))
    return OpRequest(op, (kind, endpoints[0], endpoints[1]))


def apply_model_request(model: Model, request: OpRequest) -> Model:
    return apply_request(request, model)


# --- bounded-exhaustive enumeration of the binding layer ------------------------

def _cardinality_choices(size: int) -> list[tuple[int, int]]:
    valid = [(m, n) for m in range(size + 1) for n in range(m, size + 1)]
    return valid + [(1, 0), (size, size + 1)]


def enumerate_binding_candidates(vp_names, variant_names, stride=1, offset=0):
    """Every model over the given names built from per-variant bindings.

    Covers: any mandatory/optional split of the variation points, any
    variant subset, and for each present variant either no binding, one
    dependency, or membership in the group of some variation point, with
    both valid and invalid group cardinalities. No constraints.

    ``stride`` keeps every stride-th candidate (counted before any model is
    built), which lets large scopes be sampled deterministically and cheaply.
    """
    kind_options = (None, MAN, OPT)
    index = -1 - offset
    for vp_kinds in product(kind_options, repeat=len(vp_names)):
        vps = {
            name: kind for name, kind in zip(vp_names, vp_kinds) if kind is not None
        }
        vp_list = sorted(vps)
        points = frozenset(VariationPoint(n, k) for n, k in vps.items())
        binding_options = [None]
        binding_options += [("dep", kind, vp) for vp in vp_list for kind in (MAN, OPT)]
        binding_options += [("group", vp) for vp in vp_list]
        for size in range(len(variant_names) + 1):
            for chosen in combinations(variant_names, size):
                variants = frozenset(Variant(n) for n in chosen)
                for assignment in product(binding_options, repeat=size):
                    deps = set()
                    group_members: dict[str, set[str]] = {}
                    for name, choice in zip(chosen, assignment):
                        if choice is None:
                            continue
                        if choice[0] == "dep":
                            deps.add(Dependency(name, choice[2], choice[1]))
                        else:
                            group_members.setdefault(choice[1], set()).add(name)
                    group_vps = sorted(group_members)
                    card_pools = [
                        _cardinality_choices(len(group_members[vp]))
                        for vp in group_vps
                    ]
                    for cards in product(*card_pools):
                        index += 1
                        if index % stride:
                            continue
                        groups = frozenset(
                            AltGroup(frozenset(group_members[vp]), m, n, vp)
                            for vp, (m, n) in zip(group_vps, cards)
                        )
                        yield Model(
                            variation_points=points,
                            variants=variants,
                            dependencies=frozenset(deps),
                            alt_groups=groups,
                        )


def enumerate_raw_dependency_candidates(vp_names, variant_names, max_deps=2):
    """Dependency sets drawn freely, covering dangling and double bindings."""
    pool = [
        Dependency(v, p, k)
        for v in variant_names
        for p in vp_names
        for k in (MAN, OPT)
    ]
    dep_sets = [frozenset()]
    for size in range(1, max_deps + 1):
        dep_sets.extend(frozenset(c) for c in combinations(pool, size))
    for vp_kinds in product((None, MAN), repeat=len(vp_names)):
        points = frozenset(
            VariationPoint(n, k)
            for n, k in zip(vp_names, vp_kinds)
            if k is not None
        )
        for size in range(len(variant_names) + 1):
            for chosen in combinations(variant_names, size):
                variants = frozenset(Variant(n) for n in chosen)
                for deps in dep_sets:
                    yield Model(
                        variation_points=points,
                        variants=variants,
                        dependencies=deps,
                    )


def construct_via_operations(target: Model) -> Model | None:
    """Rebuild a candidate through the guarded operations, or None on refusal.

    Elements are added in layer order. Excludes pairs are requested once per
    unordered pair, so asymmetric targets can never be reproduced.
    """
    model = new_empty_model()
    try:
        for point in sorted(target.variation_points, key=lambda p: (p.name, p.kind.value)):
            if point.kind is MAN:
                model = ovm.add_man_vp(model, point.name)
            else:
                model = ovm.add_opt_vp(model, point.name)
        for variant in sorted(target.variants, key=lambda v: v.name):
            model = ovm.add_variant(model, variant.name)
        for dep in sorted(target.dependencies, key=lambda d: (d.variant, d.vp, d.kind.value)):
            model = ovm.add_dependency(model, dep.variant, dep.vp, dep.kind)
        for group in sorted(target.alt_groups, key=lambda g: (g.vp, sorted(g.variants))):
            model = ovm.add_alt_group(
                model, group.variants, group.min_card, group.max_card, group.vp
            )
        requested = set()
        for constraint in sorted(target.constraints, key=Constraint.sort_key):
            if constraint.kind is ConstraintKind.EXCLUDES:
                if constraint.reversed() in requested:
                    continue
                requested.add(constraint)
            model = ovm.add_constraint(
                model, constraint.kind, constraint.source, constraint.target
            )
    except OvmRbacError:
        return None
    return model


def operation_menu(vp_names, variant_names):
    """Every guarded operation closed over the given name universe.

    Returns (label, callable) pairs; callables map a model to a new model.
    """
    menu = []
    for name in vp_names:
        menu.append((f"add_man_vp({name})", lambda m, n=name: ovm.add_man_vp(m, n)))
        menu.append((f"add_opt_vp({name})", lambda m, n=name: ovm.add_opt_vp(m, n)))
        menu.append((f"remove_man_vp({name})", lambda m, n=name: ovm.remove_man_vp(m, n)))
        menu.append((f"remove_opt_vp({name})", lambda m, n=name: ovm.remove_opt_vp(m, n)))
        menu.append((f"remove_alt_group({name})", lambda m, n=name: ovm.remove_alt_group(m, n)))
    for name in variant_names:
        menu.append((f"add_variant({name})", lambda m, n=name: ovm.add_variant(m, n)))
        menu.append((f"remove_variant({name})", lambda m, n=name: ovm.remove_variant(m, n)))
    for variant in variant_names:
        for vp in vp_names:
            for kind in (MAN, OPT):
                menu.append(
                    (
                        f"add_dependency({variant},{vp},{kind.value})",
                        lambda m, v=variant, p=vp, k=kind: ovm.add_dependency(m, v, p, k),
                    )
                )
            menu.append(
                (
                    f"remove_dependency({variant},{vp})",
                    lambda m, v=variant, p=vp: ovm.remove_dependency(m, v, p),
                )
            )
    for size in range(1, len(variant_names) + 1):
        for members in combinations(variant_names, size):
            for m_card, n_card in ((0, 1), (1, 1), (1, 2), (2, 2), (2, 1)):
                for vp in vp_names:
                    menu.append(
                        (
                            f"add_alt_group({members},{m_card},{n_card},{vp})",
                            lambda m, mem=frozenset(members), a=m_card, b=n_card, p=vp:
                                ovm.add_alt_group(m, mem, a, b, p),
                        )
                    )
    endpoints = [EndpointRef(V, n) for n in variant_names]
    endpoints += [EndpointRef(VP, n) for n in vp_names]
    for source in endpoints:
        for target in endpoints:
            if source == target:
                continue
            for kind in (ConstraintKind.REQUIRES, ConstraintKind.EXCLUDES):
                menu.append(
                    (
                        f"add_constraint({kind.value},{source},{target})",
                        lambda m, k=kind, s=source, t=target: ovm.add_constraint(m, k, s, t),
                    )
                )
                menu.append(
                    (
                        f"remove_constraint({kind.value},{source},{target})",
                        lambda m, k=kind, s=source, t=target: ovm.remove_constraint(m, k, s, t),
                    )
                )
    return menu


# --- constraint-layer enumeration over a fixed base ------------------------------

def constraint_base_model() -> Model:
    model = new_empty_model()
    model = ovm.add_man_vp(model, "P")
    model = ovm.add_opt_vp(model, "Q")
    model = ovm.add_variant(model, "a")
    model = ovm.add_variant(model, "b")
    model = ovm.add_dependency(model, "a", "P", MAN)
    model = ovm.add_dependency(model, "b", "Q", OPT)
    return model


PAIR_STATES = ("none", "req_fwd", "req_rev", "req_both", "excl")


def enumerate_constraint_layers():
    """All closed, exclusive constraint sets over the fixed base endpoints.

    Yields (states, constraint set) where states picks one of the five
    legal shapes per unordered endpoint pair.
    """
    endpoints = [
        EndpointRef(V, "a"),
        EndpointRef(V, "b"),
        EndpointRef(VP, "P"),
        EndpointRef(VP, "Q"),
    ]
    pairs = list(combinations(endpoints, 2))
    for states in product(PAIR_STATES, repeat=len(pairs)):
        constraints = set()
        for (left, right), state in zip(pairs, states):
            if state == "none":
                continue
            if state in ("req_fwd", "req_both"):
                constraints.add(Constraint(ConstraintKind.REQUIRES, left, right))
            if state in ("req_rev", "req_both"):
                constraints.add(Constraint(ConstraintKind.REQUIRES, right, left))
            if state == "excl":
                constraints.add(Constraint(ConstraintKind.EXCLUDES, left, right))
                constraints.add(Constraint(ConstraintKind.EXCLUDES, right, left))
        yield states, frozenset(constraints)


# --- brute-force access expansion oracle -------------------------------------------

def _constraint_text(c) -> str:
    return (
        f"constraint:{c.kind.value}:{c.source.universe.value}"
        f":{c.source.name}:{c.target.universe.value}:{c.target.name}"
    )


def materialized_categories(model) -> dict[str, set[str]]:
    """Category name -> the element ids it denotes, by scanning the model.

    ``OBJECTS`` holds every element id.
    """
    man_vps = {p.name for p in model.variation_points if p.kind is MAN}
    opt_vps = {p.name for p in model.variation_points if p.kind is OPT}
    table: dict[str, set[str]] = {
        "MAN_VP": {f"vp:{n}" for n in man_vps},
        "OPT_VP": {f"vp:{n}" for n in opt_vps},
        "VARIANT": {f"variant:{v.name}" for v in model.variants},
        "MAN": {
            f"dep:{d.variant}->{d.vp}"
            for d in model.dependencies
            if d.kind is MAN
        },
        "OPT": {
            f"dep:{d.variant}->{d.vp}"
            for d in model.dependencies
            if d.kind is OPT
        },
        "ALTGROUP": {f"altgroup:{g.vp}" for g in model.alt_groups},
    }
    for kind in ConstraintKind:
        for src_u in (V, VP):
            for dst_u in (V, VP):
                label = "_".join(
                    (
                        kind.value.upper(),
                        "V" if src_u is V else "VP",
                        "V" if dst_u is V else "VP",
                    )
                )
                table[label] = {
                    _constraint_text(c)
                    for c in model.constraints
                    if c.kind is kind
                    and c.source.universe is src_u
                    and c.target.universe is dst_u
                }
    everything = set().union(*table.values())
    table["OBJECTS"] = everything
    return table


def _covered(table, text: str) -> set[str]:
    """The element ids one granted object id covers under ``table``."""
    if text.startswith("set:"):
        return table.get(text[4:], set())
    return {text} & table["OBJECTS"]


def expansion_allowed_triples(policy, model) -> set[tuple[str, str, str]]:
    """(user, operation, element id) triples allowed by materializing grants.

    Categories are expanded into the element ids they denote by scanning
    the model directly; the universal grant covers every element.
    """
    table = materialized_categories(model)
    allowed = set()
    for user, role in policy.user_assignments:
        for perm, holder in policy.permission_assignments:
            if holder != role:
                continue
            for element in _covered(table, perm.object.text):
                allowed.add((user, perm.operation, element))
    return allowed


def _relations(model):
    """(element id, variant endpoint names, variation-point endpoint names)
    of every dependency, alternative group and constraint."""
    for d in model.dependencies:
        yield f"dep:{d.variant}->{d.vp}", {d.variant}, {d.vp}
    for g in model.alt_groups:
        yield f"altgroup:{g.vp}", set(g.variants), {g.vp}
    for c in model.constraints:
        ends = (c.source, c.target)
        yield (_constraint_text(c), {r.name for r in ends if r.universe is V},
               {r.name for r in ends if r.universe is VP})


def _admitting_grants(policy, model, roles, allows) -> dict[str, set]:
    """Element id -> the grants of ``roles`` passing ``allows`` that cover it,
    materialized as in ``expansion_allowed_triples``."""
    table = materialized_categories(model)
    admitting: dict[str, set] = {}
    for perm, role in policy.permission_assignments:
        if role in roles and allows(perm.operation):
            for text in _covered(table, perm.object.text):
                admitting.setdefault(text, set()).add(perm)
    return admitting


def projected_view(policy, model, roles, allows) -> tuple[frozenset, frozenset]:
    """(visible element ids, stub names) of the view ``roles`` are granted.

    Grants of the roles whose operation passes ``allows`` are materialized
    as in ``expansion_allowed_triples``. A visible dependency, group or
    constraint also shows its variant endpoints; its variation-point
    endpoints that no grant admits are stubs.
    """
    admitted = set(_admitting_grants(policy, model, roles, allows))
    visible, referenced = set(admitted), set()
    for text, variants, vps in _relations(model):
        if text in admitted:
            visible |= {f"variant:{name}" for name in variants}
            referenced |= vps
    shown_vps = {text[3:] for text in admitted if text.startswith("vp:")}
    return frozenset(visible), frozenset(referenced - shown_vps)


def projected_provenance(policy, model, roles, allows) -> dict[str, frozenset]:
    """Visible element id -> the grants behind it, in the view ``roles`` are
    granted.

    An admitted id has the filter-passing grants that cover it: its exact id,
    its category, and ``set:OBJECTS``. A variant that visible relations carry
    also has the union of those relations' grants.
    """
    admitting = _admitting_grants(policy, model, roles, allows)
    carried: dict[str, set] = {}
    for text, variants, _ in _relations(model):
        if text in admitting:
            for name in variants:
                carried.setdefault(f"variant:{name}", set()).update(admitting[text])
    for text, perms in carried.items():
        admitting.setdefault(text, set()).update(perms)
    return {text: frozenset(perms) for text, perms in admitting.items()}
