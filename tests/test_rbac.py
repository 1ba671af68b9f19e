"""Policy administration, object identifiers, and access decisions."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovmrbac import (
    ANY_OPERATION,
    AlreadyAssigned,
    Category,
    Decision,
    DuplicateId,
    InvalidName,
    NotAssigned,
    NotGranted,
    OPERATION_CATALOG,
    OvmRbacError,
    ObjectId,
    ParseError,
    Permission,
    READ_LIKE,
    UnknownOperation,
    UnknownRole,
    UnknownUser,
    add_man_vp,
    add_role,
    add_user,
    assign_user,
    category_object,
    check_access,
    deassign_user,
    derive_view,
    grant_permission2,
    load_model,
    load_policy,
    new_empty_model,
    new_empty_policy,
    parse_object_id,
    revoke_permission,
    role_permissions,
    save_model,
    save_policy,
    user_view,
)
from ovmrbac import rbac
from ovmrbac.fixture import build_example_policy
from ovmrbac.rbac import (
    alt_group_object,
    category_members,
    check_id,
    dependency_object,
    element_object_ids,
    user_permissions,
    variant_object,
    vp_object,
)
from tests_support import apply_model_request, random_model_request

ALLOW = Decision.ALLOW
DENY = Decision.DENY


# Every object-id shape: its text, the category it names (``set:`` ids only),
# and the category it spells (variant, alt-group and constraint ids only),
# which is what a creation operation's category grant matches on.
ID_SHAPES = [
    ("set:OBJECTS", Category.OBJECTS, None),
    ("set:MAN_VP", Category.MAN_VP, None),
    ("set:EXCLUDES_VP_V", Category.EXCLUDES_VP_V, None),
    ("vp:CPU VP", None, None),
    ("variant:Sc.Linux", None, Category.VARIANT),
    ("dep:Matlab->Library Required VP", None, None),
    ("altgroup:Authentication VP", None, Category.ALTGROUP),
    ("constraint:requires:variant:Linux:variant:Grid", None, Category.REQUIRES_V_V),
    ("constraint:requires:variant:Linux:vp:Linux VP", None, Category.REQUIRES_V_VP),
    ("constraint:requires:vp:OS VP:variant:Linux", None, Category.REQUIRES_VP_V),
    ("constraint:requires:vp:OS VP:vp:CPU VP", None, Category.REQUIRES_VP_VP),
    ("constraint:excludes:variant:Matlab:variant:Sc.Linux", None, Category.EXCLUDES_V_V),
    ("constraint:excludes:variant:Matlab:vp:GPU VP", None, Category.EXCLUDES_V_VP),
    ("constraint:excludes:vp:GPU VP:variant:Matlab", None, Category.EXCLUDES_VP_V),
    ("constraint:excludes:vp:GPU VP:vp:OS VP", None, Category.EXCLUDES_VP_VP),
]


# Malformed object-id texts and the exact error each raises.
MALFORMED_IDS = [
    ("", "malformed object id ''"),
    ("plainname", "malformed object id 'plainname'"),
    (None, "malformed object id None"),
    (5, "malformed object id 5"),
    ("set:NOT_A_SET", "unknown category 'NOT_A_SET' in object id"),
    (
        "vp:",
        "malformed object id 'vp:': element name must be a non-empty string",
    ),
    ("dep:onlyvariant", "malformed dependency id 'dep:onlyvariant'"),
    ("dep:a->b->c", "malformed dependency id 'dep:a->b->c'"),
    (
        "constraint:requires:variant:a",
        "malformed constraint id 'constraint:requires:variant:a'",
    ),
    (
        "constraint:sometimes:variant:a:variant:b",
        "malformed object id 'constraint:sometimes:variant:a:variant:b': "
        "'sometimes' is not a valid ConstraintKind",
    ),
    (
        "constraint:requires:planet:a:variant:b",
        "malformed object id 'constraint:requires:planet:a:variant:b': "
        "'planet' is not a valid Universe",
    ),
    ("what:ever", "unknown object id prefix 'what'"),
    # Two faults at once: the first check in parse order reports.
    (
        "constraint:sometimes:planet:a:variant:b",
        "malformed object id 'constraint:sometimes:planet:a:variant:b': "
        "'sometimes' is not a valid ConstraintKind",
    ),
    (
        "constraint:requires:planet::variant:b",
        "malformed object id 'constraint:requires:planet::variant:b': "
        "'planet' is not a valid Universe",
    ),
    (
        "constraint:requires:variant::planet:b",
        "malformed object id 'constraint:requires:variant::planet:b': "
        "element name must be a non-empty string",
    ),
    (
        "dep:->x",
        "malformed object id 'dep:->x': element name must be a non-empty string",
    ),
]


class TestObjectIds:
    @pytest.mark.parametrize(
        "text, named, spelled", ID_SHAPES, ids=[text for text, _, _ in ID_SHAPES]
    )
    def test_canonical_texts_round_trip(self, text, named, spelled):
        obj = parse_object_id(text)
        assert obj.text == text
        assert (obj.is_category, obj.category) == (named is not None, named)

    @pytest.mark.parametrize(
        "text, message", MALFORMED_IDS, ids=[str(text) for text, _ in MALFORMED_IDS]
    )
    def test_malformed_texts_rejected(self, text, message):
        with pytest.raises(ParseError) as raised:
            parse_object_id(text)
        assert str(raised.value) == message

    @pytest.mark.parametrize("granted", list(Category), ids=lambda c: c.value)
    def test_creation_grants_match_the_spelled_category(self, granted):
        """On an empty model only the creation rule, an exact id or
        ``set:OBJECTS`` can allow; the rule reads the id's spelled category."""
        policy = assign_user(add_user(add_role(new_empty_policy(), "R"), "u"), "u", "R")
        for operation in ("add_Constraint", "add_AltGroup", "remove_Constraint"):
            policy = grant_permission2(policy, [category_object(granted)], operation, "R")
        model = new_empty_model()
        for text, named, spelled in ID_SHAPES:
            for operation in ("add_Constraint", "add_AltGroup", "remove_Constraint"):
                creation = operation != "remove_Constraint"
                expected = (
                    granted is Category.OBJECTS
                    or named is granted
                    or (creation and spelled is granted)
                )
                got = check_access(policy, model, "u", operation, ObjectId(text))
                assert got is (ALLOW if expected else DENY), (text, operation)

    def test_ids_are_value_objects(self):
        assert ObjectId("vp:OS VP") == vp_object("OS VP")
        assert len({ObjectId("variant:a"), variant_object("a")}) == 1


class TestAdministration:
    def test_user_and_role_registration(self):
        policy = add_user(new_empty_policy(), "Alice")
        assert policy.users == frozenset({"Alice"})
        with pytest.raises(DuplicateId):
            add_user(policy, "Alice")
        policy = add_role(policy, "Grid Node Expert")
        with pytest.raises(DuplicateId):
            add_role(policy, "Grid Node Expert")

    def test_ids_are_text_that_utf8_can_encode(self):
        policy = add_role(add_user(new_empty_policy(), "Jürgen"), "Prüfer")
        assert (policy.users, policy.roles) == ({"Jürgen"}, {"Prüfer"})
        for register in (add_user, add_role):
            with pytest.raises(InvalidName, match="cannot be encoded as UTF-8"):
                register(policy, "U\ud800")
        with pytest.raises(InvalidName, match="cannot be encoded as UTF-8"):
            check_id("op\udcff", "operation")

    def test_fixture_registry_sizes(self, example_policy):
        assert len(example_policy.users) == 3
        assert len(example_policy.roles) == 3
        assert len(example_policy.user_assignments) == 3
        assert example_policy.operations == frozenset(OPERATION_CATALOG)

    def test_assign_requires_registered_ids(self):
        policy = add_role(add_user(new_empty_policy(), "Alice"), "Image Expert")
        with pytest.raises(UnknownUser):
            assign_user(policy, "Mallory", "Image Expert")
        with pytest.raises(UnknownRole):
            assign_user(policy, "Alice", "Nobody")
        policy = assign_user(policy, "Alice", "Image Expert")
        with pytest.raises(AlreadyAssigned):
            assign_user(policy, "Alice", "Image Expert")

    def test_deassign(self, example_policy, example_model):
        policy = deassign_user(example_policy, "Alice", "Grid Node Expert")
        assert all(u != "Alice" for u, _ in policy.user_assignments)
        target = category_object(Category.MAN_VP)
        assert check_access(policy, example_model, "Alice", "read", target) is DENY
        with pytest.raises(NotAssigned):
            deassign_user(policy, "Alice", "Grid Node Expert")

    def test_grant_validates_role_and_operation(self):
        policy = add_role(new_empty_policy(), "R")
        with pytest.raises(UnknownRole):
            grant_permission2(policy, [vp_object("X")], "read", "Nobody")
        with pytest.raises(UnknownOperation):
            grant_permission2(policy, [vp_object("X")], "levitate", "R")

    def test_an_object_id_given_as_text_is_refused_at_the_call(self, example_policy):
        # kept, such a grant would fail every later decision, view or save
        # of the policy instead of the call that made it
        message = "^expected a ObjectId, got 'vp:OS VP'$"
        with pytest.raises(ValueError, match=message):
            grant_permission2(example_policy, ["vp:OS VP"], "read", "Image Expert")
        with pytest.raises(ValueError, match=message):
            revoke_permission(example_policy, "vp:OS VP", "read", "Image Expert")
        assert example_policy == build_example_policy()

    def test_grant_is_idempotent_and_set_valued(self):
        policy = add_role(new_empty_policy(), "R")
        objects = [vp_object("X"), variant_object("y")]
        once = grant_permission2(policy, objects, "read", "R")
        twice = grant_permission2(once, objects, "read", "R")
        assert once == twice
        assert len(role_permissions(once, "R")) == 2

    def test_revoke_round_trip(self, example_model):
        policy = add_user(add_role(new_empty_policy(), "R"), "u")
        policy = assign_user(policy, "u", "R")
        base = policy
        policy = grant_permission2(policy, [category_object(Category.OBJECTS)], "read", "R")
        obj = vp_object("OS VP")
        model = add_man_vp(new_empty_model(), "OS VP")
        assert check_access(policy, model, "u", "read", obj) is ALLOW
        policy = revoke_permission(policy, category_object(Category.OBJECTS), "read", "R")
        assert policy == base
        assert check_access(policy, model, "u", "read", obj) is DENY
        with pytest.raises(NotGranted):
            revoke_permission(policy, category_object(Category.OBJECTS), "read", "R")

    def test_regrant_restores_allow(self, example_model, example_policy):
        obj = category_object(Category.MAN_VP)
        policy = revoke_permission(
            example_policy, obj, "remove_Variation_Point", "Grid Node Expert"
        )
        assert (
            check_access(policy, example_model, "Alice", "remove_Variation_Point", obj)
            is DENY
        )
        policy = grant_permission2(
            policy, [obj], "remove_Variation_Point", "Grid Node Expert"
        )
        assert (
            check_access(policy, example_model, "Alice", "remove_Variation_Point", obj)
            is ALLOW
        )


class TestRolePermissions:
    def test_grid_node_expert_rows(self, example_policy):
        rows = {
            (p.object.text, p.operation)
            for p in role_permissions(example_policy, "Grid Node Expert")
        }
        assert rows == {
            ("set:OBJECTS", "read"),
            ("set:MAN_VP", "add_Variation_Point"),
            ("set:MAN_VP", "remove_Variation_Point"),
        }

    def test_security_expert_rows(self, example_policy):
        rows = role_permissions(example_policy, "Security Expert")
        assert rows == frozenset(
            {
                Permission(alt_group_object("Authentication VP"), "readAltGroup"),
                Permission(alt_group_object("Authentication VP"), "writeAltGroup"),
            }
        )

    def test_unknown_role(self, example_policy):
        with pytest.raises(UnknownRole):
            role_permissions(example_policy, "Nobody")


class TestCheckAccess:
    def test_decision_matrix(self, example_model, example_policy):
        cases = [
            ("Alice", "add_Variation_Point", "set:MAN_VP", ALLOW),
            ("Alice", "remove_Variation_Point", "set:MAN_VP", ALLOW),
            ("Bob", "writeAltGroup", "altgroup:Authentication VP", ALLOW),
            ("Helen", "writeOptDep", "dep:Matlab->Library Required VP", ALLOW),
            ("Helen", "remove_Variation_Point", "set:MAN_VP", DENY),
            ("Bob", "read", "vp:OS VP", DENY),
            ("Nobody", "read", "set:OBJECTS", DENY),
        ]
        for user, operation, obj, expected in cases:
            got = check_access(
                example_policy, example_model, user, operation, ObjectId(obj)
            )
            assert got is expected, (user, operation, obj)

    def test_fail_closed_on_empty_policy(self, example_model):
        policy = new_empty_policy()
        for obj in ("set:OBJECTS", "vp:OS VP", "variant:Matlab"):
            assert (
                check_access(policy, example_model, "Alice", "read", ObjectId(obj))
                is DENY
            )

    def test_universal_grant_reaches_every_element(self, example_model, example_policy):
        for obj in element_object_ids(example_model):
            assert (
                check_access(example_policy, example_model, "Alice", "read", obj)
                is ALLOW
            )

    def test_category_grant_covers_element_dynamically(
        self, example_model, example_policy
    ):
        target = vp_object("Brand New VP")
        # not a member yet: the MAN_VP grant does not cover it
        assert (
            check_access(
                example_policy, example_model, "Alice", "remove_Variation_Point", target
            )
            is DENY
        )
        grown = add_man_vp(example_model, "Brand New VP")
        assert (
            check_access(
                example_policy, grown, "Alice", "remove_Variation_Point", target
            )
            is ALLOW
        )

    def test_category_grant_never_covers_other_category(
        self, example_model, example_policy
    ):
        assert (
            check_access(
                example_policy,
                example_model,
                "Alice",
                "add_Variation_Point",
                category_object(Category.OPT_VP),
            )
            is DENY
        )

    def test_creation_targets_match_syntactically(self, example_model):
        policy = add_user(add_role(new_empty_policy(), "R"), "u")
        policy = assign_user(policy, "u", "R")
        policy = grant_permission2(
            policy, [category_object(Category.EXCLUDES_V_V)], "add_Constraint", "R"
        )
        target = ObjectId("constraint:excludes:variant:a:variant:b")
        # the constraint does not exist yet, the grant still covers creation
        assert check_access(policy, example_model, "u", "add_Constraint", target) is ALLOW
        # but a read of that nonexistent constraint is not covered
        assert check_access(policy, example_model, "u", "read", target) is DENY

    def test_incompatible_grants_are_inert(self, example_model):
        policy = add_user(add_role(new_empty_policy(), "R"), "u")
        policy = assign_user(policy, "u", "R")
        policy = grant_permission2(
            policy, [variant_object("Matlab")], "readAltGroup", "R"
        )
        assert (
            check_access(
                policy, example_model, "u", "readAltGroup", variant_object("Matlab")
            )
            is ALLOW
        )
        assert (
            check_access(
                policy,
                example_model,
                "u",
                "readAltGroup",
                alt_group_object("Authentication VP"),
            )
            is DENY
        )


class TestCategoryMembers:
    def test_fixture_membership_counts(self, example_model):
        sizes = {
            Category.MAN_VP: 6,
            Category.OPT_VP: 2,
            Category.VARIANT: 17,
            Category.MAN: 5,
            Category.OPT: 7,
            Category.ALTGROUP: 2,
            Category.EXCLUDES_V_V: 2,
            Category.REQUIRES_V_VP: 6,
            Category.REQUIRES_VP_V: 2,
            Category.REQUIRES_V_V: 0,
            Category.EXCLUDES_VP_VP: 0,
        }
        for category, expected in sizes.items():
            assert len(category_members(example_model, category)) == expected, category

    def test_objects_category_is_everything(self, example_model):
        everything = category_members(example_model, Category.OBJECTS)
        assert everything == element_object_ids(example_model)
        assert dependency_object("GPU", "Processor VP") in everything


# Decisions on the fixture by every user, plus a user whose role reads every
# category but OBJECTS, on every operation and every element and category id;
# prints how many times a decision called category_members.
_COST_PROBE = """
from ovmrbac import rbac
from ovmrbac.fixture import build_example_model, build_example_policy
from ovmrbac.rbac import (
    OPERATION_CATALOG, Category, add_role, add_user, assign_user, category_object,
    check_access, element_object_ids, grant_permission2,
)

model, policy = build_example_model(), build_example_policy()
policy = assign_user(add_user(add_role(policy, "Reader"), "Rita"), "Rita", "Reader")
categories = [category_object(c) for c in Category]
policy = grant_permission2(policy, categories[1:], "read", "Reader")
ids = sorted(element_object_ids(model), key=str) + categories
calls = []
members = rbac.category_members
rbac.category_members = lambda model, category: calls.append(1) or members(model, category)
for user in sorted(policy.users):
    for operation in OPERATION_CATALOG:
        for obj in ids:
            check_access(policy, model, user, operation, obj)
print(len(calls))
"""

# Admin steps, guarded model edits, and decisions and views over the
# fixture's users and roles, a user who holds all three roles, and ids the
# policy does not register; a query reads the current policy and model, the
# one before its last applied step, or an equal copy of the current one.
_USERS = ("u0", "Alice", "Bob", "Helen", "nobody")
_ROLES = ("Grid Node Expert", "Image Expert", "Security Expert", "r0")
_OPERATIONS = ("read", "remove_Variant", "add_AltGroup", "writeOptDep", "unregistered")
_OBJECTS = (
    "set:OBJECTS", "set:MAN_VP", "set:OPT_VP", "set:VARIANT", "set:ALTGROUP",
    "set:OPT", "set:REQUIRES_V_VP", "vp:CPU VP", "variant:Sc.Linux",
    "altgroup:Authentication VP", "altgroup:Linux VP",
    "dep:Matlab->Library Required VP",
    "constraint:requires:variant:Linux:vp:Linux VP",
)
_WHICH = st.sampled_from(("current", "previous", "equal"))
_ADMIN_STEPS = {
    "add_user": add_user, "add_role": add_role, "assign_user": assign_user,
    "deassign_user": deassign_user, "grant_permission2": grant_permission2,
    "revoke_permission": revoke_permission,
}
_users, _roles = st.sampled_from(_USERS), st.sampled_from(_ROLES)
_operations, _objects = st.sampled_from(_OPERATIONS), st.sampled_from(_OBJECTS)
_admin_steps = st.one_of(
    st.tuples(st.just("add_user"), _users),
    st.tuples(st.just("add_role"), _roles),
    st.tuples(st.just("assign_user"), _users, _roles),
    st.tuples(st.just("deassign_user"), _users, _roles),
    st.tuples(st.just("grant_permission2"), st.lists(_objects, min_size=1, max_size=3),
              _operations, _roles),
    st.tuples(st.just("revoke_permission"), _objects, _operations, _roles),
)
# a model edit is the request that tests_support draws from a seed
_model_steps = st.tuples(st.just("model"), st.integers(0, 2**32 - 1))
# a query names the policy, then the element or subject, then the model
_queries = st.one_of(
    st.tuples(st.just("check"), _WHICH, _objects, _WHICH),
    st.tuples(st.just("role view"), _WHICH, _roles, _WHICH),
    st.tuples(st.just("user view"), _WHICH, _users, _WHICH),
)
# about three queries to an edit, so that queries read kept entries
_steps = st.lists(st.one_of(_admin_steps, _model_steps, *[_queries] * 6),
                  min_size=10, max_size=50)


def _clear_caches():
    rbac._last_policy[:], rbac._last_index[:] = [None, None], [None, None]


def _query(step, policy, model, before_each=lambda: None):
    """Every user's decisions on every operation and one object, or a view
    with its permission set (or the error it raises); ``before_each`` runs
    before each decision or view."""
    if step[0] == "check":
        results = []
        for user in _USERS:
            for operation in _OPERATIONS:
                before_each()
                results.append(check_access(policy, model, user, operation, ObjectId(step[2])))
        return results
    before_each()
    try:
        if step[0] == "role view":
            view = derive_view(policy, model, step[2], ANY_OPERATION)
            return view, view.vp_stubs, dict(view.provenance), role_permissions(policy, step[2])
        view = user_view(policy, model, step[2], READ_LIKE)
        return view, view.vp_stubs, dict(view.provenance), user_permissions(policy, step[2])
    except OvmRbacError as exc:
        return type(exc), str(exc)


class TestPolicyIndex:
    """Decisions and permission sets read a one-entry index of the last policy."""

    def test_a_decision_costs_the_same_under_every_hash_seed(self):
        # the granted categories are tried in declaration order, not set order
        src = str(Path(rbac.__file__).resolve().parents[1])
        counts = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", _COST_PROBE], env=env, capture_output=True,
                text=True, timeout=120, check=True,
            )
            counts.append(int(result.stdout))
        assert counts[0] == counts[1] > 0

    def test_equal_policies_share_one_index(self, example_model):
        # the index is keyed by value, and the latest equal policy takes it
        # over, so that its next calls find it by identity
        first, second = build_example_policy(), build_example_policy()
        index = rbac._policy_index(first)
        assert rbac._policy_index(second) is index
        assert rbac._last_policy[0] is second
        assert rbac._policy_index(add_user(second, "Zed")) is not index
        # decisions keep their entries for registered ids alone
        index = rbac._policy_index(second)
        for user, operation in [("Alice", "read"), ("Zed", "read"), ("Alice", "fly")]:
            check_access(second, example_model, user, operation, ObjectId("vp:CPU VP"))
        assert list(index.decisions) == [("Alice", "read")]

    def test_a_decision_leaves_no_trace_on_its_policy(self, example_model):
        fresh, used = build_example_policy(), build_example_policy()
        for user in sorted(used.users):
            user_permissions(used, user)
            user_view(used, example_model, user, READ_LIKE)
            for operation in OPERATION_CATALOG:
                for obj in ("set:OBJECTS", "vp:CPU VP", "variant:Sc.Linux"):
                    check_access(used, example_model, user, operation, ObjectId(obj))
        for role in sorted(used.roles):
            role_permissions(used, role)
            derive_view(used, example_model, role, ANY_OPERATION)
        assert used == fresh
        assert (hash(used), repr(used)) == (hash(fresh), repr(fresh))
        assert save_policy(used) == save_policy(fresh)
        for policy in (used, fresh):
            assert not hasattr(policy, "__dict__") and len(tuple(policy)) == len(rbac.Policy._fields)

    @settings(max_examples=150, deadline=None)
    @given(_steps)
    def test_results_equal_those_after_the_cache_is_cleared(self, example_model, steps):
        # both kept indexes, the policy's and the model's, across edits of each
        policy = add_user(build_example_policy(), "u0")
        for role in _ROLES[:3]:  # a user who holds several roles
            policy = assign_user(policy, "u0", role)
        previous, model, previous_model = policy, example_model, example_model
        for step in steps:
            if step[0] == "model":
                request = random_model_request(random.Random(step[1]))
                try:
                    previous_model, model = model, apply_model_request(model, request)
                except OvmRbacError:
                    pass
                continue
            if step[0] in _ADMIN_STEPS:
                args = list(step[1:])
                if step[0] == "grant_permission2":
                    args[0] = [ObjectId(text) for text in args[0]]
                elif step[0] == "revoke_permission":
                    args[0] = ObjectId(args[0])
                try:
                    previous, policy = policy, _ADMIN_STEPS[step[0]](policy, *args)
                except OvmRbacError:
                    pass
                continue
            queried = {
                "current": policy, "previous": previous,
                "equal": load_policy(save_policy(policy)),
            }[step[1]]
            queried_model = {
                "current": model, "previous": previous_model,
                "equal": load_model(save_model(model)),
            }[step[3]]
            got = _query(step, queried, queried_model)
            kept = list(rbac._last_policy), list(rbac._last_index)
            try:
                assert got == _query(step, queried, queried_model, _clear_caches), step
            finally:
                rbac._last_policy[:], rbac._last_index[:] = kept
