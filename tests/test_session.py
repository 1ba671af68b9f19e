"""Access-mediated execution and permission-derived views."""

from dataclasses import fields, replace

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
    OperationFilter,
    OutcomeStatus,
    READ_LIKE,
    Session,
    Universe,
    UnknownRole,
    UnknownUser,
    VariabilityKind,
    add_role,
    category_object,
    derive_view,
    exact_operation,
    execute,
    grant_permission2,
    list_vps,
    remove_alt_group,
    remove_constraint,
    revoke_permission,
    save_model,
    user_view,
)
from ovmrbac import rbac
from ovmrbac.fixture import build_example_model
from ovmrbac.rbac import (
    OPERATION_CATALOG,
    element_object_ids,
    model_elements,
    parse_object_id,
)
from ovmrbac.session import (
    OpRequest,
    resolve_request,
)

MAN = VariabilityKind.MANDATORY
OPT = VariabilityKind.OPTIONAL


class TestRequestResolution:
    def test_mapping_table(self, example_model):
        cases = [
            (OpRequest("addManVP", ("New VP",)), "add_Variation_Point", "set:MAN_VP"),
            (OpRequest("addOptVP", ("New VP",)), "add_Variation_Point", "set:OPT_VP"),
            (
                OpRequest("removeManVP", ("CPU VP",)),
                "remove_Variation_Point",
                "vp:CPU VP",
            ),
            (OpRequest("addVariant", ("v",)), "add_Variant", "set:VARIANT"),
            (
                OpRequest("removeVariant", ("Matlab",)),
                "remove_Variant",
                "variant:Matlab",
            ),
            (OpRequest("addDependency", ("a", "P", MAN)), "writeManDep", "set:MAN"),
            (OpRequest("addDependency", ("a", "P", OPT)), "writeOptDep", "set:OPT"),
            (
                OpRequest("removeDependency", ("GPU", "Processor VP")),
                "writeOptDep",
                "dep:GPU->Processor VP",
            ),
            (
                OpRequest("removeDependency", ("CPU", "Processor VP")),
                "writeManDep",
                "dep:CPU->Processor VP",
            ),
            (
                OpRequest("addAltGroup", ({"a", "b"}, 1, 1, "P")),
                "add_AltGroup",
                "altgroup:P",
            ),
            (
                OpRequest("removeAltGroup", ("CPU VP",)),
                "remove_AltGroup",
                "altgroup:CPU VP",
            ),
            (
                OpRequest(
                    "addConstraint",
                    (
                        ConstraintKind.EXCLUDES,
                        EndpointRef(Universe.VARIANT, "a"),
                        EndpointRef(Universe.VARIANT, "b"),
                    ),
                ),
                "add_Constraint",
                "constraint:excludes:variant:a:variant:b",
            ),
        ]
        for request, operation, target in cases:
            got_op, got_target = resolve_request(request, example_model)
            assert (got_op, got_target.text) == (operation, target), request.op

    def test_unknown_request_op_rejected(self):
        with pytest.raises(ValueError):
            OpRequest("explode", ())


class TestExecute:
    def test_permitted_but_blocked_is_rejected(self, example_model, example_policy):
        session = Session("Alice", example_model, example_policy)
        outcome = execute(session, OpRequest("removeManVP", ("CPU VP",)))
        assert outcome.status is OutcomeStatus.REJECTED
        assert isinstance(outcome.error, ElementInUse)
        assert session.model == example_model

    def test_denied_user_gets_no_precondition_detail(
        self, example_model, example_policy
    ):
        session = Session("Helen", example_model, example_policy)
        outcome = execute(session, OpRequest("removeManVP", ("CPU VP",)))
        assert outcome.status is OutcomeStatus.DENIED
        assert outcome.error is None
        assert session.model == example_model

    def test_applied_commits(self, example_model, example_policy):
        session = Session("Alice", example_model, example_policy)
        outcome = execute(session, OpRequest("addManVP", ("New VP",)))
        assert outcome.status is OutcomeStatus.APPLIED
        assert "New VP" in list_vps(session.model, MAN)
        assert outcome.model == session.model

    def test_log_records_every_call(self, example_model, example_policy):
        session = Session("Alice", example_model, example_policy)
        execute(session, OpRequest("addManVP", ("New VP",)))
        execute(session, OpRequest("addManVP", ("New VP",)))  # duplicate -> rejected
        execute(session, OpRequest("addVariant", ("v",)))  # no grant -> denied
        assert [e.outcome.status for e in session.log] == [
            OutcomeStatus.APPLIED,
            OutcomeStatus.REJECTED,
            OutcomeStatus.DENIED,
        ]
        assert [e.decision for e in session.log] == [
            Decision.ALLOW,
            Decision.ALLOW,
            Decision.DENY,
        ]
        assert len(session.log) == 3

    def test_unknown_user_denied(self, example_model, example_policy):
        session = Session("Mallory", example_model, example_policy)
        assert (
            execute(session, OpRequest("addManVP", ("X",))).status
            is OutcomeStatus.DENIED
        )

    def test_element_grant_authorizes_dependency_write(
        self, example_model, example_policy
    ):
        session = Session("Helen", example_model, example_policy)
        outcome = execute(
            session, OpRequest("removeDependency", ("Matlab", "Library Required VP"))
        )
        assert outcome.status is OutcomeStatus.APPLIED
        # but Helen holds nothing for the GPU dependency's write operation
        outcome = execute(
            session, OpRequest("removeDependency", ("GPU", "Processor VP"))
        )
        assert outcome.status is OutcomeStatus.DENIED


class TestDeriveView:
    def test_universal_read_grant_sees_everything(
        self, example_model, example_policy
    ):
        view = derive_view(example_policy, example_model, "Grid Node Expert", READ_LIKE)
        assert view.element_ids() == frozenset(
            obj.text for obj in element_object_ids(example_model)
        )
        assert view.vp_stubs == frozenset()

    def test_security_expert_sees_only_the_group(
        self, example_model, example_policy
    ):
        view = derive_view(example_policy, example_model, "Security Expert", READ_LIKE)
        assert len(view.alt_groups) == 1
        group = next(iter(view.alt_groups))
        assert group.variants == frozenset({"Kerberos", "Password", "SSLAuth"})
        assert (group.min_card, group.max_card) == (1, 1)
        assert {v.name for v in view.variants} == {"Kerberos", "Password", "SSLAuth"}
        assert view.vp_stubs == frozenset({"Authentication VP"})
        assert view.variation_points == frozenset()
        assert view.dependencies == frozenset()
        assert view.constraints == frozenset()

    def test_image_expert_read_like(self, example_model, example_policy):
        view = derive_view(example_policy, example_model, "Image Expert", READ_LIKE)
        deps = {(d.variant, d.vp) for d in view.dependencies}
        assert deps == {
            ("Matlab", "Library Required VP"),
            ("GPU", "Processor VP"),
        }
        assert {v.name for v in view.variants} == {"Matlab", "GPU"}
        assert view.vp_stubs == frozenset({"Library Required VP", "Processor VP"})

    def test_exact_filter(self, example_model, example_policy):
        view = derive_view(
            example_policy, example_model, "Image Expert", exact_operation("read")
        )
        assert {(d.variant, d.vp) for d in view.dependencies} == {
            ("GPU", "Processor VP")
        }

    def test_a_filter_is_a_set_of_operation_ids(self, example_model, example_policy):
        # a string would test operation ids as substrings, so that the read
        # grants of "read" would pass for "readAltGroup"
        exact = derive_view(
            example_policy, example_model, "Image Expert", exact_operation("readAltGroup")
        )
        assert exact.element_ids() == frozenset()
        with pytest.raises(TypeError):
            OperationFilter("readAltGroup")
        # any other collection is frozen
        listed = OperationFilter(["readAltGroup", "read"])
        assert listed.operations == frozenset({"read", "readAltGroup"})
        assert listed == OperationFilter(frozenset(listed.operations))
        assert OperationFilter(iter(["read"])) == exact_operation("read")
        assert ANY_OPERATION.operations is None

    def test_provenance_names_the_admitting_permission(
        self, example_model, example_policy
    ):
        view = derive_view(example_policy, example_model, "Security Expert", READ_LIKE)
        perms = view.provenance["altgroup:Authentication VP"]
        assert {(p.object.text, p.operation) for p in perms} == {
            ("altgroup:Authentication VP", "readAltGroup")
        }
        # pulled-in member variants inherit the group's admitting permission
        assert view.provenance["variant:Kerberos"] == perms

    def test_every_visible_element_has_provenance(
        self, example_model, example_policy
    ):
        for role in ("Grid Node Expert", "Image Expert", "Security Expert"):
            view = derive_view(example_policy, example_model, role, ANY_OPERATION)
            for element in view.element_ids():
                assert view.provenance.get(element), (role, element)

    def test_unknown_role(self, example_model, example_policy):
        with pytest.raises(UnknownRole):
            derive_view(example_policy, example_model, "Nobody", ANY_OPERATION)

    def test_role_without_grants(self, example_model, example_policy):
        policy = add_role(example_policy, "Intern")
        with pytest.raises(NoPermissions):
            derive_view(policy, example_model, "Intern", ANY_OPERATION)

    def test_dangling_element_grant_is_inert(self, example_model, example_policy):
        policy = add_role(example_policy, "Planner")
        policy = grant_permission2(
            policy,
            [category_object(Category.ALTGROUP)],
            "read",
            "Planner",
        )
        from ovmrbac.rbac import vp_object

        policy = grant_permission2(policy, [vp_object("Future VP")], "read", "Planner")
        view = derive_view(policy, example_model, "Planner", READ_LIKE)
        assert "vp:Future VP" not in view.element_ids()
        assert len(view.alt_groups) == 2


class TestUserView:
    def test_alice_equals_her_single_role(self, example_model, example_policy):
        mine = user_view(example_policy, example_model, "Alice", ANY_OPERATION)
        role = derive_view(
            example_policy, example_model, "Grid Node Expert", ANY_OPERATION
        )
        assert mine == role

    def test_helen_read_like(self, example_model, example_policy):
        view = user_view(example_policy, example_model, "Helen", READ_LIKE)
        assert {(d.variant, d.vp) for d in view.dependencies} == {
            ("Matlab", "Library Required VP"),
            ("GPU", "Processor VP"),
        }

    def test_user_without_roles_gets_empty_view(self, example_model, example_policy):
        from ovmrbac import add_user

        policy = add_user(example_policy, "Newcomer")
        view = user_view(policy, example_model, "Newcomer", ANY_OPERATION)
        assert view.element_ids() == frozenset()
        assert view.vp_stubs == frozenset()

    def test_unknown_user(self, example_model, example_policy):
        with pytest.raises(UnknownUser):
            user_view(example_policy, example_model, "Mallory", ANY_OPERATION)

    def test_union_upgrades_stub_to_visible(self, example_model, example_policy):
        # one role sees only the group (Authentication VP as stub), another
        # reads every variation point; the union shows the point in full
        policy = add_role(example_policy, "Surveyor")
        policy = grant_permission2(
            policy, [category_object(Category.MAN_VP)], "read", "Surveyor"
        )
        from ovmrbac import add_user, assign_user

        policy = add_user(policy, "Pat")
        policy = assign_user(policy, "Pat", "Security Expert")
        policy = assign_user(policy, "Pat", "Surveyor")
        view = user_view(policy, example_model, "Pat", READ_LIKE)
        assert "Authentication VP" not in view.vp_stubs
        assert any(p.name == "Authentication VP" for p in view.variation_points)


class TestViewDynamics:
    def test_granting_never_shrinks(self, example_model, example_policy):
        before = derive_view(
            example_policy, example_model, "Security Expert", ANY_OPERATION
        )
        policy = grant_permission2(
            example_policy,
            [category_object(Category.VARIANT)],
            "read",
            "Security Expert",
        )
        after = derive_view(policy, example_model, "Security Expert", ANY_OPERATION)
        assert before.element_ids() <= after.element_ids()

    def test_revoking_never_grows(self, example_model, example_policy):
        before = derive_view(
            example_policy, example_model, "Image Expert", ANY_OPERATION
        )
        from ovmrbac.rbac import dependency_object

        policy = revoke_permission(
            example_policy,
            dependency_object("GPU", "Processor VP"),
            "read",
            "Image Expert",
        )
        after = derive_view(policy, example_model, "Image Expert", ANY_OPERATION)
        assert after.element_ids() <= before.element_ids()
        assert after.element_ids() | after.vp_stubs <= (
            before.element_ids() | before.vp_stubs
        )

    def test_view_tracks_model_changes(self, example_model, example_policy):
        view = derive_view(
            example_policy, example_model, "Grid Node Expert", ANY_OPERATION
        )
        smaller = remove_constraint(
            remove_alt_group(example_model, "CPU VP"),
            ConstraintKind.REQUIRES,
            EndpointRef(Universe.VARIANT, "CPU"),
            EndpointRef(Universe.VP, "CPU VP"),
        )
        shrunk = derive_view(
            example_policy, smaller, "Grid Node Expert", ANY_OPERATION
        )
        assert shrunk.element_ids() < view.element_ids()

    def test_a_view_leaves_no_trace_on_its_model(self, example_policy):
        # whatever a view keeps on the snapshot it read is invisible to values,
        # fields, elements, documents and copies
        fresh, viewed = build_example_model(), build_example_model()
        for role in sorted(example_policy.roles):
            derive_view(example_policy, viewed, role, ANY_OPERATION)
        user_view(example_policy, viewed, "Bob", READ_LIKE)
        assert viewed == fresh
        assert (hash(viewed), repr(viewed)) == (hash(fresh), repr(fresh))
        assert fields(viewed) == fields(fresh) == fields(Model)
        assert len(list(model_elements(viewed))) == len(list(model_elements(fresh)))
        assert save_model(viewed) == save_model(fresh)
        copied = replace(viewed)
        assert (copied, repr(copied)) == (fresh, repr(fresh))
        assert vars(viewed).keys() == vars(copied).keys() == vars(fresh).keys()

    def test_equal_snapshots_share_one_index(self):
        # the index is keyed by value, and the latest equal snapshot takes it
        # over, so that its next calls find it by identity
        first, second = build_example_model(), build_example_model()
        index = rbac.category_index(first)
        assert rbac.category_index(second) is index
        assert rbac._last_index[0] is second
        assert rbac.category_index(replace(second, variants=frozenset())) is not index

    def test_alternating_snapshots_view_as_fresh(self, example_model, example_policy):
        # views that alternate between two unequal snapshots rebuild the index
        # on every view; each equals a view built after the cache is cleared
        snapshots = (example_model, remove_alt_group(example_model, "CPU VP"))
        cases = [
            (derive, subject, op_filter)
            for op_filter in (ANY_OPERATION, READ_LIKE, exact_operation("read"))
            for derive, subject in [
                *((derive_view, role) for role in sorted(example_policy.roles)),
                *((user_view, user) for user in sorted(example_policy.users)),
            ]
        ]
        differ = 0
        for _ in range(4):
            for derive, subject, op_filter in cases:
                views = [derive(example_policy, m, subject, op_filter) for m in snapshots]
                for model, view in zip(snapshots, views):
                    rbac._last_index[:] = [None, None]
                    fresh = derive(example_policy, model, subject, op_filter)
                    assert (view, view.vp_stubs) == (fresh, fresh.vp_stubs), subject
                    assert dict(view.provenance) == dict(fresh.provenance), subject
                differ += views[0] != views[1]
        assert differ

    def test_a_kept_log_keeps_bare_snapshots(self, example_model, example_policy):
        # each snapshot a log keeps was viewed, and holds its fields alone
        session = Session("Alice", example_model, example_policy)
        requests = [
            OpRequest("addManVP", ("New VP",)),
            OpRequest("addManVP", ("New VP",)),  # duplicate -> rejected
            OpRequest("addVariant", ("v",)),  # no grant -> denied
            OpRequest("addManVP", ("Other VP",)),
            OpRequest("removeManVP", ("New VP",)),
        ]
        for request in requests:
            execute(session, request)
            user_view(example_policy, session.model, "Alice", READ_LIKE)
        kept = [entry.outcome.model for entry in session.log if entry.outcome.applied]
        assert len(kept) == 3
        names = {f.name for f in fields(Model)}
        assert [vars(model).keys() for model in kept] == [names] * len(kept)

    def test_views_are_values(self, example_model, example_policy):
        # a view hashes like any model-shaped value, and viewing it again
        # under the same grants and filter gives it back
        copy = replace(example_model)
        filters = [ANY_OPERATION, READ_LIKE, *map(exact_operation, OPERATION_CATALOG)]
        derivations = [
            *((derive_view, role) for role in sorted(example_policy.roles)),
            *((user_view, user) for user in sorted(example_policy.users)),
        ]
        for op_filter in filters:
            for derive, subject in derivations:
                view = derive(example_policy, example_model, subject, op_filter)
                equal = derive(example_policy, copy, subject, op_filter)
                assert (equal, hash(equal)) == (view, hash(view)), subject
                again = derive(example_policy, view, subject, op_filter)
                assert (again, hash(again)) == (view, hash(view)), subject
                # provenance is read-only, so a view cannot drift from an
                # equal one or from its own hash
                with pytest.raises(TypeError):
                    view.provenance["vp:New VP"] = frozenset()
                with pytest.raises(AttributeError):
                    view.provenance.clear()
                assert view == equal and equal in {view}, subject


class TestParsing:
    """Object ids are parsed once, when built; views parse none again."""

    def test_views_and_built_ids_parse_nothing(
        self, example_model, example_policy, monkeypatch
    ):
        built = parse_object_id("constraint:requires:variant:GPU:vp:Processor VP")
        parsed = []
        parse = rbac._parse_object_text
        monkeypatch.setattr(
            rbac, "_parse_object_text", lambda text: parsed.append(text) or parse(text)
        )
        filters = [ANY_OPERATION, READ_LIKE, *map(exact_operation, OPERATION_CATALOG)]
        for op_filter in filters:
            for role in sorted(example_policy.roles):
                derive_view(example_policy, example_model, role, op_filter)
            for user in sorted(example_policy.users):
                user_view(example_policy, example_model, user, op_filter)
        assert (built.category, built.is_category) == (None, False)
        assert built._category is Category.REQUIRES_V_VP
        assert parsed == []
