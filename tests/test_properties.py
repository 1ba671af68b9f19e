"""Algebraic invariants of the operation layer, checked property-style."""

import copy
import dataclasses
import json
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovmrbac import (
    AltGroup,
    Constraint,
    ConstraintKind,
    Dependency,
    EndpointRef,
    OvmRbacError,
    READ_LIKE,
    Universe,
    VariabilityKind,
    Variant,
    VariationPoint,
    add_alt_group,
    add_constraint,
    add_dependency,
    add_man_vp,
    add_opt_vp,
    add_role,
    add_user,
    add_variant,
    assign_user,
    check_structure,
    derive_view,
    grant_permission2,
    load_model,
    load_policy,
    new_empty_model,
    new_empty_policy,
    remove_alt_group,
    remove_constraint,
    remove_dependency,
    remove_man_vp,
    remove_opt_vp,
    remove_variant,
    revoke_permission,
    save_model,
    save_policy,
    user_view,
)
from ovmrbac.model_io import model_to_document
from ovmrbac.rbac import (
    READ_LIKE_OPERATIONS,
    Category,
    Decision,
    ObjectId,
    category_object,
    check_access,
    vp_object,
)
from ovmrbac.session import OpRequest, resolve_request

MAN = VariabilityKind.MANDATORY
OPT = VariabilityKind.OPTIONAL

names = st.from_regex(r"[A-Za-z][A-Za-z0-9 _.]{0,12}[A-Za-z0-9]", fullmatch=True)


def components(model):
    return {
        field.name: getattr(model, field.name)
        for field in dataclasses.fields(model)
    }


@given(names)
def test_vp_add_remove_inversion(name):
    base = new_empty_model()
    assert remove_man_vp(add_man_vp(base, name), name) == base
    assert remove_opt_vp(add_opt_vp(base, name), name) == base


@given(names)
def test_variant_add_remove_inversion(name):
    base = add_man_vp(new_empty_model(), "Anchor VP")
    assert remove_variant(add_variant(base, name), name) == base


@given(names, names, st.sampled_from([MAN, OPT]))
def test_dependency_add_remove_inversion(variant, vp, kind):
    base = add_variant(add_man_vp(new_empty_model(), vp), variant)
    grown = add_dependency(base, variant, vp, kind)
    assert remove_dependency(grown, variant, vp) == base


@given(names, names, st.sampled_from(list(ConstraintKind)))
def test_constraint_add_remove_inversion(left, right, kind):
    base = add_man_vp(add_variant(new_empty_model(), left), right)
    source = EndpointRef(Universe.VARIANT, left)
    target = EndpointRef(Universe.VP, right)
    grown = add_constraint(base, kind, source, target)
    assert remove_constraint(grown, kind, source, target) == base


@given(st.sets(names, min_size=2, max_size=4), st.data())
def test_group_add_remove_inversion(members, data):
    base = add_man_vp(new_empty_model(), "Anchor VP")
    for member in members:
        base = add_variant(base, member)
    max_card = data.draw(st.integers(0, len(members)))
    min_card = data.draw(st.integers(0, max_card))
    grown = add_alt_group(base, members, min_card, max_card, "Anchor VP")
    assert remove_alt_group(grown, "Anchor VP") == base


@given(names)
def test_strict_growth_add_vp(name):
    base = new_empty_model()
    grown = add_man_vp(base, name)
    before, after = components(base), components(grown)
    changed = [k for k in before if before[k] != after[k]]
    assert changed == ["variation_points"]
    assert before["variation_points"] < after["variation_points"]


@given(names, names)
def test_strict_growth_excludes_touches_one_component(left, right):
    if left == right:
        return
    base = add_variant(add_variant(new_empty_model(), left), right)
    grown = add_constraint(
        base,
        ConstraintKind.EXCLUDES,
        EndpointRef(Universe.VARIANT, left),
        EndpointRef(Universe.VARIANT, right),
    )
    before, after = components(base), components(grown)
    changed = [k for k in before if before[k] != after[k]]
    assert changed == ["constraints"]
    assert len(after["constraints"]) == len(before["constraints"]) + 2


@given(names)
def test_failed_operations_leave_input_untouched(name):
    model = add_man_vp(new_empty_model(), name)
    snapshot = dataclasses.replace(model)
    for blow_up in (
        lambda: add_man_vp(model, name),
        lambda: add_opt_vp(model, name),
        lambda: remove_opt_vp(model, name),
        lambda: remove_variant(model, name),
        lambda: remove_dependency(model, name, name),
        lambda: remove_alt_group(model, name),
    ):
        with pytest.raises(OvmRbacError):
            blow_up()
        assert model == snapshot


# A deterministic mini-fuzz over random operation sequences; the acceptance
# suite runs the long version against the full fixture.
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30 - 1))
def test_random_sequences_preserve_structure(seed):
    import random

    from tests_support import apply_model_request

    rng = random.Random(seed)
    model = new_empty_model()
    for _ in range(150):
        request = _random_step(rng, model)
        before = copy.deepcopy(model)
        try:
            model = apply_model_request(model, request)
        except OvmRbacError:
            assert model == before  # a rejected request leaves its input as it was
            continue
        assert check_structure(model) == []


def _expected_delta(request, before):
    """(component, element) pairs an applied request adds or removes, derived
    from the request alone; a removed element's value is read from ``before``."""
    op, args = request.op, request.args
    if op in ("addManVP", "removeManVP"):
        return {("variation_points", VariationPoint(args[0], MAN))}
    if op in ("addOptVP", "removeOptVP"):
        return {("variation_points", VariationPoint(args[0], OPT))}
    if op in ("addVariant", "removeVariant"):
        return {("variants", Variant(args[0]))}
    if op == "addDependency":
        return {("dependencies", Dependency(*args))}
    if op == "removeDependency":
        return {
            ("dependencies", d) for d in before.dependencies
            if (d.variant, d.vp) == tuple(args)
        }
    if op == "addAltGroup":
        return {("alt_groups", AltGroup(*args))}
    if op == "removeAltGroup":
        return {("alt_groups", g) for g in before.alt_groups if g.vp == args[0]}
    kind, source, target = args
    delta = {("constraints", Constraint(kind, source, target))}
    if kind is ConstraintKind.EXCLUDES:  # the pair and its mirror
        delta.add(("constraints", Constraint(kind, target, source)))
    return delta


def _removal_of(relation):
    """The request that removes ``relation``."""
    if type(relation) is Dependency:
        return OpRequest("removeDependency", (relation.variant, relation.vp))
    if type(relation) is AltGroup:
        return OpRequest("removeAltGroup", (relation.vp,))
    kind, source, target = relation.kind, relation.source, relation.target
    return OpRequest("removeConstraint", (kind, source, target))


def _random_step(rng, model):
    """A request for ``model``: 30% of the time the removal of a relation it
    holds, else a random request whose names come, half the time, from the
    model. Pool names rarely meet in a small model, so without both, relation
    requests would seldom apply."""
    from tests_support import random_model_request

    held = sorted(
        (
            _removal_of(relation)
            for part in (model.dependencies, model.alt_groups, model.constraints)
            for relation in part
        ),
        key=lambda r: (r.op, str(r.args)),
    )
    if held and rng.random() < 0.3:
        return rng.choice(held)
    if model.variation_points and model.variants and rng.random() < 0.5:
        return random_model_request(
            rng,
            sorted(p.name for p in model.variation_points),
            sorted(v.name for v in model.variants),
        )
    return random_model_request(rng)


# Postcondition and frame condition of every operation: an applied request
# adds (or removes) exactly its expected delta and changes nothing else. The
# sequences are long, because a relation needs both its endpoints first.
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30 - 1))
def test_applied_requests_change_exactly_their_delta(seed):
    import random

    from tests_support import apply_model_request

    rng = random.Random(seed)
    model = new_empty_model()
    for _ in range(150):
        request = _random_step(rng, model)
        try:
            after = apply_model_request(model, request)
        except OvmRbacError:
            continue
        expected = _expected_delta(request, model)
        assert len(expected) == (2 if request.args[0] is ConstraintKind.EXCLUDES else 1)
        before_items, after_items = (
            {(key, element) for key, part in components(m).items() for element in part}
            for m in (model, after)
        )
        added, removed = after_items - before_items, before_items - after_items
        if request.op.startswith("add"):
            assert (added, removed) == (expected, set())
        else:
            assert (added, removed) == (set(), expected)
        model = after


def _snapshot_view_policy(rng):
    """Three roles, each with three category grants and an exact grant on a
    pool name per kind of element, on operations the read-like filter partly
    keeps; user ``u`` holds two of the roles."""
    from tests_support import VARIANT_POOL, VP_POOL

    categories = [f"set:{c.value}" for c in Category]
    policy = add_user(new_empty_policy(), "u")
    for role in ("r0", "r1", "r2"):
        policy = add_role(policy, role)
        vp, variant = rng.choice(VP_POOL), rng.choice(VARIANT_POOL)
        exact = [f"vp:{vp}", f"altgroup:{vp}", f"variant:{variant}",
                 f"dep:{variant}->{vp}"]
        for text in rng.sample(categories, 3) + exact:
            operation = rng.choice(("read", "readOptDep", "remove_Variant"))
            policy = grant_permission2(policy, [ObjectId(text)], operation, role)
    for role in ("r0", "r1"):
        policy = assign_user(policy, "u", role)
    return policy


def _assert_views_match_oracles(policy, model):
    from tests_support import projected_provenance, projected_view

    cases = [(derive_view(policy, model, role), {role}, lambda op: True)
             for role in ("r0", "r1", "r2")]
    cases.append((user_view(policy, model, "u", READ_LIKE), {"r0", "r1"},
                  READ_LIKE_OPERATIONS.__contains__))
    for view, roles, allows in cases:
        expected = projected_view(policy, model, roles, allows)
        assert (view.element_ids(), view.vp_stubs) == expected, roles
        assert view.provenance == projected_provenance(policy, model, roles, allows)
        # the document lists each visible constraint closure by a held member
        for row in model_to_document(view)["constraints"]:
            source, target = (
                EndpointRef(Universe(row[end]["universe"]), row[end]["name"])
                for end in ("from", "to")
            )
            listed = Constraint(ConstraintKind(row["kind"]), source, target)
            assert listed in view.constraints, roles


# Views follow the snapshot they are given: each snapshot is viewed before and
# after every applied request, so every snapshot is viewed more than once, and
# each view must equal the oracles computed for its own snapshot.
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 30 - 1))
def test_views_follow_each_snapshot(seed):
    import random

    from tests_support import apply_model_request

    rng = random.Random(seed)
    policy = _snapshot_view_policy(rng)
    model = new_empty_model()
    for _ in range(150):
        request = _random_step(rng, model)
        _assert_views_match_oracles(policy, model)
        try:
            after = apply_model_request(model, request)
        except OvmRbacError:
            continue
        _assert_views_match_oracles(policy, after)
        model = after


_KINDS = {MAN: "MAN", OPT: "OPT"}
_TAGS = {Universe.VARIANT: "V", Universe.VP: "VP"}


def _id_and_category(element):
    """An element's object id and the name of its category, from its fields."""
    kind = type(element)
    if kind is VariationPoint:
        return f"vp:{element.name}", f"{_KINDS[element.kind]}_VP"
    if kind is Variant:
        return f"variant:{element.name}", "VARIANT"
    if kind is Dependency:
        return f"dep:{element.variant}->{element.vp}", _KINDS[element.kind]
    if kind is AltGroup:
        return f"altgroup:{element.vp}", "ALTGROUP"
    source, target = element.source, element.target
    text = (f"constraint:{element.kind.value}:{source.universe.value}:{source.name}"
            f":{target.universe.value}:{target.name}")
    return text, f"{element.kind.name}_{_TAGS[source.universe]}_{_TAGS[target.universe]}"


# The object an applied request is checked on covers every element the
# request adds or removes: the element is the target itself, or belongs to the
# target category. The one exception is the mirror of an excludes constraint,
# which the request adds or removes along with its pair under another id, and
# for mixed endpoints in another category.
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30 - 1))
def test_applied_requests_change_only_what_their_target_covers(seed):
    import random

    from tests_support import apply_model_request

    rng = random.Random(seed)
    model = new_empty_model()
    for _ in range(150):
        request = _random_step(rng, model)
        try:
            after = apply_model_request(model, request)
        except OvmRbacError:
            continue
        _, target = resolve_request(request, model)
        before_ids, after_ids = (
            {_id_and_category(e) for e in chain.from_iterable(components(m).values())}
            for m in (model, after)
        )
        for text, category in before_ids ^ after_ids:
            if target.text in (text, f"set:{category}"):
                continue
            kind, source, to = request.args
            assert kind is ConstraintKind.EXCLUDES
            assert text == f"constraint:excludes:{to}:{source}"
        model = after


def test_every_add_grows_exactly_one_component(example_model):
    # one strict-superset component, four untouched, for each add flavor
    base = remove_alt_group(example_model, "CPU VP")
    with_fresh = add_variant(base, "fresh")
    cases = [
        (base, lambda m: add_man_vp(m, "Fresh VP"), "variation_points"),
        (base, lambda m: add_opt_vp(m, "Fresh VP"), "variation_points"),
        (base, lambda m: add_variant(m, "fresh"), "variants"),
        (
            with_fresh,
            lambda m: add_dependency(m, "fresh", "OS VP", OPT),
            "dependencies",
        ),
        (base, lambda m: add_alt_group(m, {"x32", "x64"}, 1, 1, "CPU VP"), "alt_groups"),
        (
            base,
            lambda m: add_constraint(
                m,
                ConstraintKind.REQUIRES,
                EndpointRef(Universe.VARIANT, "x32"),
                EndpointRef(Universe.VP, "CPU VP"),
            ),
            "constraints",
        ),
    ]
    for start, operation, component in cases:
        grown = operation(start)
        before, after = components(start), components(grown)
        changed = [k for k in before if before[k] != after[k]]
        assert changed == [component]
        assert before[component] < after[component]


def test_assignment_and_grant_changes_are_monotone(example_model):
    import random

    from test_oracle import random_small_policy
    from ovmrbac import ObjectId, assign_user, deassign_user
    from ovmrbac.rbac import element_object_ids

    rng = random.Random(99)
    elements = sorted(obj.text for obj in element_object_ids(example_model))
    for _ in range(25):
        policy = random_small_policy(rng, example_model)
        triples = [
            (
                rng.choice(("u1", "u2", "u3")),
                rng.choice(sorted(policy.operations)),
                ObjectId(rng.choice(elements))
                if rng.random() < 0.7
                else category_object(Category.OBJECTS),
            )
            for _ in range(12)
        ]
        before = [
            check_access(policy, example_model, *triple) for triple in triples
        ]

        user, role = rng.choice(("u1", "u2", "u3")), rng.choice(sorted(policy.roles))
        if (user, role) in policy.user_assignments:
            shrunk = deassign_user(policy, user, role)
            after = [
                check_access(shrunk, example_model, *triple) for triple in triples
            ]
            for old, new in zip(before, after):
                assert not (old is Decision.DENY and new is Decision.ALLOW)
        else:
            grown = assign_user(policy, user, role)
            after = [
                check_access(grown, example_model, *triple) for triple in triples
            ]
            for old, new in zip(before, after):
                assert not (old is Decision.ALLOW and new is Decision.DENY)


def test_grant_revoke_inversion(example_policy):
    obj = vp_object("Anything VP")
    grown = grant_permission2(example_policy, [obj], "read", "Image Expert")
    assert revoke_permission(grown, obj, "read", "Image Expert") == example_policy


def test_pa_growth_is_monotone(example_model, example_policy):
    requests = [
        ("Alice", "read", vp_object("OS VP")),
        ("Helen", "writeOptDep", category_object(Category.OPT)),
        ("Bob", "readAltGroup", vp_object("CPU VP")),
    ]
    before = [
        check_access(example_policy, example_model, *request)
        for request in requests
    ]
    grown = grant_permission2(
        example_policy, [category_object(Category.OBJECTS)], "readAltGroup", "Security Expert"
    )
    after = [
        check_access(grown, example_model, *request) for request in requests
    ]
    for old, new in zip(before, after):
        assert not (old is Decision.ALLOW and new is Decision.DENY)


# Arbitrary JSON values, and documents whose keys and strings come from the
# document vocabulary, so that some of them load and many fail deep inside.
_TOP_KEYS = [
    "variation_points", "variants", "dependencies", "alt_groups", "constraints",
    "users", "roles", "operations", "user_assignments", "grants",
]
_FIELDS = [
    "name", "kind", "variant", "vp", "min", "max", "variants", "from", "to",
    "universe", "user", "role", "objects", "operation",
]
_WORDS = [
    "a", "b", "P", "mandatory", "optional", "requires", "excludes", "variant",
    "vp", "read", "set:OBJECTS", "vp:P", "variant:a", " ", "",
]
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(_WORDS)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=3), children,
                      max_size=5),
    max_leaves=12,
)
_word = st.sampled_from(_WORDS)
_field = (
    _word
    | st.integers(-1, 3)
    | st.lists(_word, max_size=3)
    | st.fixed_dictionaries({"universe": _word, "name": _word})
    | st.none()
)
_element = st.fixed_dictionaries({}, optional={key: _field for key in _FIELDS})
documents = json_values | st.fixed_dictionaries(
    {}, optional={key: st.lists(_word | _element, max_size=3) for key in _TOP_KEYS}
)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_loading_round_trips_or_raises(value):
    """Every JSON document loads and saves stably, or raises OvmRbacError."""
    text = json.dumps(value)
    for load, save in ((load_model, save_model), (load_policy, save_policy)):
        try:
            loaded = load(text)
        except OvmRbacError:
            continue
        saved = save(loaded)
        assert save(load(saved)) == saved
