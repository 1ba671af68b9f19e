"""Seeded synthetic inputs: model shapes and policy shapes.

Every model is built through the library's public guarded operations, so a
generated model is valid by construction and building it exercises the
mutation layer. The same ``random.Random`` seed always yields the same
model and policy, whatever the interpreter's hash seed: choices are made
from sorted sequences, never from set iteration order.

Model shapes (``n`` is the size parameter):

- ``chain``: n mandatory variation points, n variants, n optional
  dependencies and n-1 variant-to-variant requires constraints.
- ``fan``: n/8 variation points, each with an alternative group of four
  variants and four more variants bound by dependencies; requires
  constraints link consecutive variation points.
- ``dense``: n/4 variation points, n variants (a few left unbound, so
  validation reports them) and about 2n requires/excludes constraints
  over all four endpoint-universe combinations.
- ``mixed``: a chain, a fan and a dense part of n/3 each, side by side.

Policy shapes: category-heavy roles hold several ``set:`` grants each, the
same for every seed;
element-heavy roles hold many exact element grants, a fifth of them
dangling (naming elements that do not exist). Users hold three roles.
"""

from __future__ import annotations

import random

import ovmrbac as o

MAN = o.VariabilityKind.MANDATORY
OPT = o.VariabilityKind.OPTIONAL
REQUIRES = o.ConstraintKind.REQUIRES
EXCLUDES = o.ConstraintKind.EXCLUDES
V = o.Universe.VARIANT
VP = o.Universe.VP

# Operations that make sense on each category; category-heavy roles draw
# their grants from this table.
CATEGORY_OPS: dict[str, tuple[str, ...]] = {
    "OBJECTS": ("read",),
    "MAN_VP": ("read", "add_Variation_Point", "remove_Variation_Point"),
    "OPT_VP": ("read", "add_Variation_Point", "remove_Variation_Point"),
    "VARIANT": ("read", "add_Variant", "remove_Variant"),
    "MAN": ("read", "readManDep", "writeManDep"),
    "OPT": ("read", "readOptDep", "writeOptDep"),
    "ALTGROUP": ("read", "readAltGroup", "writeAltGroup", "add_AltGroup",
                 "remove_AltGroup"),
}
for _kind in ("REQUIRES", "EXCLUDES"):
    for _ends in ("V_V", "V_VP", "VP_V", "VP_VP"):
        CATEGORY_OPS[f"{_kind}_{_ends}"] = ("read", "add_Constraint",
                                            "remove_Constraint")

# Operations that make sense on each element-id prefix.
ELEMENT_OPS: dict[str, tuple[str, ...]] = {
    "vp": ("read", "remove_Variation_Point"),
    "variant": ("read", "remove_Variant"),
    "dep": ("read", "readManDep", "readOptDep", "writeManDep", "writeOptDep"),
    "altgroup": ("read", "readAltGroup", "writeAltGroup", "remove_AltGroup"),
    "constraint": ("read", "remove_Constraint"),
}


# --- canonical element ids, spelled from the raw model shapes ---------------

def endpoint_text(ref: o.EndpointRef) -> str:
    return f"{ref.universe.value}:{ref.name}"


def constraint_text(c: o.Constraint) -> str:
    return f"constraint:{c.kind.value}:{endpoint_text(c.source)}:{endpoint_text(c.target)}"


def element_texts(model: o.Model) -> list[str]:
    """Every element id of the model, sorted."""
    ids = [f"vp:{p.name}" for p in model.variation_points]
    ids += [f"variant:{v.name}" for v in model.variants]
    ids += [f"dep:{d.variant}->{d.vp}" for d in model.dependencies]
    ids += [f"altgroup:{g.vp}" for g in model.alt_groups]
    ids += [constraint_text(c) for c in model.constraints]
    return sorted(ids)


# --- model shapes -------------------------------------------------------------

def _chain(model: o.Model, n: int, prefix: str) -> o.Model:
    for i in range(n):
        model = o.add_man_vp(model, f"{prefix}VP{i}")
        model = o.add_variant(model, f"{prefix}v{i}")
        model = o.add_dependency(model, f"{prefix}v{i}", f"{prefix}VP{i}", OPT)
    for i in range(n - 1):
        model = o.add_constraint(
            model, REQUIRES, o.EndpointRef(V, f"{prefix}v{i}"),
            o.EndpointRef(V, f"{prefix}v{i + 1}"),
        )
    return model


def _fan(model: o.Model, n: int, prefix: str) -> o.Model:
    for g in range(max(1, n // 8)):
        vp = f"{prefix}VP{g}"
        model = (o.add_man_vp if g % 2 == 0 else o.add_opt_vp)(model, vp)
        members = [f"{prefix}g{g}m{k}" for k in range(4)]
        for name in members:
            model = o.add_variant(model, name)
        model = o.add_alt_group(model, members, 1, 2, vp)
        for k in range(4):
            name = f"{prefix}g{g}d{k}"
            model = o.add_variant(model, name)
            model = o.add_dependency(model, name, vp, MAN if k % 2 == 0 else OPT)
        if g > 0:
            model = o.add_constraint(
                model, REQUIRES, o.EndpointRef(VP, vp),
                o.EndpointRef(VP, f"{prefix}VP{g - 1}"),
            )
    return model


def _dense(model: o.Model, n: int, prefix: str, rng: random.Random) -> o.Model:
    vps = [f"{prefix}VP{i}" for i in range(max(2, n // 4))]
    for i, name in enumerate(vps):
        model = (o.add_man_vp if i % 3 else o.add_opt_vp)(model, name)
    variants = [f"{prefix}v{i}" for i in range(n)]
    for i, name in enumerate(variants):
        model = o.add_variant(model, name)
        if i % 20 != 7:  # every twentieth variant stays unbound
            model = o.add_dependency(
                model, name, rng.choice(vps), MAN if rng.random() < 0.5 else OPT
            )
    claimed: set[tuple[tuple, tuple]] = set()
    for _ in range(2 * n):
        ends = []
        for _ in range(2):
            if rng.random() < 0.75:
                ends.append((V, rng.choice(variants)))
            else:
                ends.append((VP, rng.choice(vps)))
        a, b = ends
        if a == b or (a, b) in claimed or (b, a) in claimed:
            continue
        claimed.add((a, b))
        kind = REQUIRES if rng.random() < 0.6 else EXCLUDES
        model = o.add_constraint(model, kind, o.EndpointRef(*a), o.EndpointRef(*b))
    return model


def build_model(shape: str, n: int, rng: random.Random) -> o.Model:
    model = o.new_empty_model()
    if shape == "chain":
        return _chain(model, n, "c")
    if shape == "fan":
        return _fan(model, n, "f")
    if shape == "dense":
        return _dense(model, n, "d", rng)
    if shape == "mixed":
        part = max(2, n // 3)
        model = _chain(model, part, "c")
        model = _fan(model, part, "f")
        return _dense(model, part, "d", rng)
    raise ValueError(f"unknown model shape {shape!r}")


# --- policy shapes --------------------------------------------------------------

def _grant(policy: o.Policy, role: str, operation: str, texts) -> o.Policy:
    objects = [o.parse_object_id(text) for text in texts]
    return o.grant_permission2(policy, objects, operation, role)


def add_category_role(policy: o.Policy, role: str, grants) -> o.Policy:
    """A role holding the given (category, operation) grants."""
    policy = o.add_role(policy, role)
    for category, operation in grants:
        policy = _grant(policy, role, operation, [f"set:{category}"])
    return policy


def add_element_role(policy: o.Policy, role: str, model: o.Model,
                     rng: random.Random, grants: int) -> o.Policy:
    """A role holding ``grants`` exact element grants, a fifth dangling."""
    policy = o.add_role(policy, role)
    present = element_texts(model)
    by_op: dict[str, list[str]] = {}
    for k in range(grants):
        if k % 5 == 4:
            text = f"{rng.choice(('vp', 'variant', 'altgroup'))}:ghost {rng.randrange(10**6)}"
        else:
            text = rng.choice(present)
        prefix = text.partition(":")[0]
        by_op.setdefault(rng.choice(ELEMENT_OPS[prefix]), []).append(text)
    for operation in sorted(by_op):
        policy = _grant(policy, role, operation, by_op[operation])
    return policy


def build_policy(model: o.Model, rng: random.Random, *, category_roles: int,
                 element_roles: int, category_grants: int, element_grants: int,
                 users: int) -> o.Policy:
    """Roles ``cat<i>`` and ``elem<i>``; users ``user<i>`` hold three roles each.

    Category role i holds a fixed window of ``category_grants`` categories,
    each on an operation picked by rotation (windows of consecutive roles
    follow each other around the category list). Category roles are thus
    the same for every seed, which keeps the cost of category resolution
    from varying with the seed. User i holds category role i mod C and two
    distinct element roles, so every user's view and decisions mix both
    policy shapes.
    """
    policy = o.new_empty_policy()
    order = sorted(CATEGORY_OPS)
    for i in range(category_roles):
        grants = []
        for k in range(category_grants):
            slot = i * category_grants + k
            category = order[slot % len(order)]
            ops = CATEGORY_OPS[category]
            grants.append((category, ops[(slot // len(order) + k) % len(ops)]))
        policy = add_category_role(policy, f"cat{i}", grants)
    for i in range(element_roles):
        policy = add_element_role(policy, f"elem{i}", model, rng, element_grants)
    for i in range(users):
        user = f"user{i}"
        first = i % element_roles
        second = (first + 1 + rng.randrange(element_roles - 1)) % element_roles
        policy = o.add_user(policy, user)
        for role in (f"cat{i % category_roles}", f"elem{first}", f"elem{second}"):
            policy = o.assign_user(policy, user, role)
    return policy
