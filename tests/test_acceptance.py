"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance here is exact: set equality, exact counts, byte
identity, or zero violations.
"""

import json
import random

import pytest

from ovmrbac import (
    ANY_OPERATION,
    Category,
    ConstraintKind,
    Decision,
    ElementInUse,
    EndpointRef,
    Model,
    NoPermissions,
    OPERATION_CATALOG,
    ObjectId,
    OutcomeStatus,
    OvmRbacError,
    READ_LIKE,
    Session,
    StructuralViolation,
    Universe,
    add_role,
    category_object,
    check_access,
    check_structure,
    derive_view,
    execute,
    grant_permission2,
    load_model,
    load_policy,
    remove_alt_group,
    remove_constraint,
    revoke_permission,
    role_permissions,
    save_model,
    save_policy,
)
from ovmrbac.fixture import build_example_model, build_example_policy
from ovmrbac.rbac import element_object_ids
from ovmrbac.session import OpRequest
from test_oracle import equivalence_sweep, random_small_policy
from tests_support import (
    broken_structural_predicates,
    constraint_base_model,
    construct_via_operations,
    enumerate_binding_candidates,
    enumerate_constraint_layers,
    enumerate_raw_dependency_candidates,
    expansion_allowed_triples,
    random_model_request,
)


def report(number: int, title: str) -> None:
    print(f"criterion {number} ({title}): PASS")


def test_criterion_1_worked_example_reproduction():
    """Model built by guarded operations, policy by assign/grant; the node
    expert's permission set is exactly the three expected rows."""
    build_example_model()  # every element passes through a guarded operation
    policy = build_example_policy()
    rows = {
        (p.object.text, p.operation)
        for p in role_permissions(policy, "Grid Node Expert")
    }
    assert rows == {
        ("set:OBJECTS", "read"),
        ("set:MAN_VP", "add_Variation_Point"),
        ("set:MAN_VP", "remove_Variation_Point"),
    }
    report(1, "worked-example reproduction")


def test_criterion_2_fixture_shape(tmp_path):
    from ovmrbac.cli import main

    assert main(["init-example", str(tmp_path)]) == 0
    document = json.loads((tmp_path / "model.json").read_text())
    kinds = [p["kind"] for p in document["variation_points"]]
    assert kinds.count("mandatory") == 6
    assert kinds.count("optional") == 2
    model = load_model((tmp_path / "model.json").read_text())
    ordered_excludes = {
        (c.source.name, c.target.name)
        for c in model.constraints
        if c.kind is ConstraintKind.EXCLUDES
    }
    assert ordered_excludes == {("Matlab", "Sc.Linux"), ("Sc.Linux", "Matlab")}
    report(2, "fixture shape")


def test_criterion_3_decision_matrix(example_model, example_policy):
    expected = [
        ("Alice", "add_Variation_Point", "set:MAN_VP", Decision.ALLOW),
        ("Bob", "writeAltGroup", "altgroup:Authentication VP", Decision.ALLOW),
        ("Helen", "writeOptDep", "dep:Matlab->Library Required VP", Decision.ALLOW),
        ("Helen", "remove_Variation_Point", "set:MAN_VP", Decision.DENY),
        ("Bob", "read", "vp:OS VP", Decision.DENY),
        ("Unregistered", "read", "set:OBJECTS", Decision.DENY),
        ("Unregistered", "add_Variation_Point", "set:MAN_VP", Decision.DENY),
    ]
    for user, operation, obj, decision in expected:
        assert (
            check_access(example_policy, example_model, user, operation, ObjectId(obj))
            is decision
        ), (user, operation, obj)
    report(3, "decision matrix")


def test_criterion_4_guarded_removal(example_model, example_policy):
    session = Session("Alice", example_model, example_policy)
    outcome = execute(session, OpRequest("removeManVP", ("CPU VP",)))
    assert outcome.status is OutcomeStatus.REJECTED
    assert isinstance(outcome.error, ElementInUse)
    assert save_model(session.model) == save_model(example_model)

    unblocked = remove_alt_group(example_model, "CPU VP")
    unblocked = remove_constraint(
        unblocked,
        ConstraintKind.REQUIRES,
        EndpointRef(Universe.VARIANT, "CPU"),
        EndpointRef(Universe.VP, "CPU VP"),
    )
    session = Session("Alice", unblocked, example_policy)
    outcome = execute(session, OpRequest("removeManVP", ("CPU VP",)))
    assert outcome.status is OutcomeStatus.APPLIED
    assert all(p.name != "CPU VP" for p in session.model.variation_points)
    report(4, "guarded removal")


def test_criterion_5_invariant_fuzz():
    rng = random.Random(20260810)
    policy = build_example_policy()
    session = Session("Alice", build_example_model(), policy)
    users = ["Alice", "Helen", "Bob", "Mallory"]
    roles = ["Grid Node Expert", "Image Expert", "Security Expert"]
    object_pool = [f"set:{c.value}" for c in Category] + [
        "vp:OS VP",
        "vp:Extra VP",
        "variant:Matlab",
        "dep:GPU->Processor VP",
        "altgroup:CPU VP",
    ]
    steps = applied = 0
    for _ in range(10_000):
        steps += 1
        roll = rng.random()
        try:
            if roll < 0.10:
                session.policy = grant_permission2(
                    session.policy,
                    [ObjectId(rng.choice(object_pool))],
                    rng.choice(OPERATION_CATALOG),
                    rng.choice(roles),
                )
            elif roll < 0.14 and session.policy.permission_assignments:
                perm, role = rng.choice(
                    sorted(
                        session.policy.permission_assignments,
                        key=lambda e: (e[0].sort_key(), e[1]),
                    )
                )
                session.policy = revoke_permission(
                    session.policy, perm.object, perm.operation, role
                )
            else:
                session.user = rng.choice(users)
                outcome = execute(session, random_model_request(rng))
                applied += outcome.status is OutcomeStatus.APPLIED
        except OvmRbacError:
            pass
        assert broken_structural_predicates(session.model) == []
        assert check_structure(session.model) == []
    assert steps == 10_000
    assert applied > 200  # the fuzz actually mutates the model
    report(5, "invariant fuzz, 10000 steps")


def test_criterion_6_oracle_equivalence(example_model):
    # reachable-by-operations == structurally-valid over bounded scopes
    seen, valid, disagreements = equivalence_sweep(
        enumerate_binding_candidates(("P", "Q"), ("a", "b", "c"))
    )
    assert (seen, disagreements) == (12648, 0)
    seen, _, disagreements = equivalence_sweep(
        enumerate_raw_dependency_candidates(("P", "Q"), ("a", "b"))
    )
    assert (seen, disagreements) == (592, 0)
    seen, _, disagreements = equivalence_sweep(
        enumerate_binding_candidates(("P", "Q", "R"), ("a", "b", "c", "d"), stride=83)
    )
    assert disagreements == 0 and seen > 20000
    base = constraint_base_model()
    layer_disagreements = 0
    for _, constraints in enumerate_constraint_layers():
        candidate = Model(
            variation_points=base.variation_points,
            variants=base.variants,
            dependencies=base.dependencies,
            alt_groups=base.alt_groups,
            constraints=constraints,
        )
        accepted = not check_structure(candidate)
        built = construct_via_operations(candidate)
        if accepted != (built is not None and built == candidate):
            layer_disagreements += 1
    assert layer_disagreements == 0

    # check_access == brute-force category expansion, every triple
    elements = sorted(obj.text for obj in element_object_ids(example_model))
    for seed in range(3):
        policy = random_small_policy(random.Random(7000 + seed), example_model)
        allowed = expansion_allowed_triples(policy, example_model)
        for user in ("u1", "u2", "u3", "stranger"):
            for operation in OPERATION_CATALOG:
                for element in elements:
                    got = check_access(
                        policy, example_model, user, operation, ObjectId(element)
                    )
                    assert (got is Decision.ALLOW) == (
                        (user, operation, element) in allowed
                    ), (user, operation, element)
    report(6, "oracle equivalence")


def test_criterion_7_persistence(example_model, example_policy):
    model_text = save_model(example_model)
    policy_text = save_policy(example_policy)
    assert load_model(model_text) == example_model
    assert load_policy(policy_text) == example_policy
    assert save_model(load_model(model_text)) == model_text
    assert save_policy(load_policy(policy_text)) == policy_text
    assert save_model(example_model) == model_text  # byte determinism

    overlapping = json.dumps(
        {
            "variation_points": [
                {"name": "X", "kind": "mandatory"},
                {"name": "X", "kind": "optional"},
            ]
        }
    )
    with pytest.raises(StructuralViolation):
        load_model(overlapping)
    report(7, "persistence")


def test_criterion_8_view_properties(example_model, example_policy):
    # universal read grant makes every role's read-like view total
    full = frozenset(obj.text for obj in element_object_ids(example_model))
    for role in ("Grid Node Expert", "Image Expert", "Security Expert", "Fresh"):
        policy = example_policy if role != "Fresh" else add_role(example_policy, role)
        policy = grant_permission2(
            policy, [category_object(Category.OBJECTS)], "read", role
        )
        view = derive_view(policy, example_model, role, READ_LIKE)
        assert view.element_ids() == full, role

    # random revocations never grow any view
    def snapshot(policy):
        shots = {}
        for role in sorted(policy.roles):
            try:
                view = derive_view(policy, example_model, role, ANY_OPERATION)
            except NoPermissions:
                shots[role] = (frozenset(), frozenset())
                continue
            reachable = view.element_ids() | {f"vp:{name}" for name in view.vp_stubs}
            shots[role] = (view.element_ids(), reachable)
        return shots

    rng = random.Random(424242)
    revocations = 0
    while revocations < 1000:
        policy = random_small_policy(rng, example_model)
        entries = sorted(
            policy.permission_assignments, key=lambda e: (e[0].sort_key(), e[1])
        )
        if not entries:
            continue
        before = snapshot(policy)
        for _ in range(min(4, len(entries))):
            perm, role = rng.choice(entries)
            try:
                smaller = revoke_permission(policy, perm.object, perm.operation, role)
            except OvmRbacError:
                continue
            revocations += 1
            after = snapshot(smaller)
            for name in after:
                assert after[name][0] <= before[name][0], name
                assert after[name][1] <= before[name][1], name
    assert revocations >= 1000
    report(8, "view properties")
