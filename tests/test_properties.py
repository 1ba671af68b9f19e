"""Algebraic invariants of the operation layer, checked property-style."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovmrbac import (
    ConstraintKind,
    EndpointRef,
    OvmRbacError,
    Universe,
    VariabilityKind,
    add_alt_group,
    add_constraint,
    add_dependency,
    add_man_vp,
    add_opt_vp,
    add_variant,
    check_structure,
    grant_permission2,
    load_model,
    load_policy,
    new_empty_model,
    remove_alt_group,
    remove_constraint,
    remove_dependency,
    remove_man_vp,
    remove_opt_vp,
    remove_variant,
    revoke_permission,
    save_model,
    save_policy,
)
from ovmrbac.rbac import Category, category_object, check_access, Decision, vp_object

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
@given(st.lists(st.integers(0, 2 ** 30 - 1), min_size=1, max_size=40))
def test_random_sequences_preserve_structure(seeds):
    import random

    from tests_support import random_model_request, apply_model_request

    rng = random.Random(seeds[0])
    model = new_empty_model()
    for seed in seeds:
        rng.seed(seed)
        request = random_model_request(rng)
        try:
            model = apply_model_request(model, request)
        except OvmRbacError:
            continue
        assert check_structure(model) == []


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
