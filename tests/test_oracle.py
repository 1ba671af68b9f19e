"""Two-route agreement: guarded construction vs. independent enumeration.

The enumerators build candidate models from raw parts; the checker filters
them; the guarded operations try to rebuild each candidate from scratch.
A candidate must be constructible exactly when the checker accepts it, and
every state an operation can produce must satisfy the checker. The same
two-route idea applies to access decisions: check_access must agree with a
brute-force materialization of every category grant.
"""

import random
from dataclasses import fields

import pytest

from ovmrbac import (
    ANY_OPERATION,
    ConstraintKind,
    EndpointRef,
    Model,
    NoPermissions,
    OPERATION_CATALOG,
    ObjectId,
    OvmRbacError,
    READ_LIKE,
    Universe,
    VariabilityKind,
    ViewModel,
    add_role,
    add_user,
    assign_user,
    check_access,
    check_structure,
    derive_view,
    exact_operation,
    export_dot,
    grant_permission2,
    new_empty_model,
    new_empty_policy,
    user_view,
)
from ovmrbac.rbac import Category, Decision, element_object_ids
from ovmrbac.session import OpRequest
from tests_support import (
    PAIR_STATES,
    VP_POOL,
    apply_model_request,
    constraint_base_model,
    construct_via_operations,
    enumerate_binding_candidates,
    enumerate_constraint_layers,
    enumerate_raw_dependency_candidates,
    expansion_allowed_triples,
    materialized_categories,
    operation_menu,
    projected_provenance,
    projected_view,
    random_model_request,
)


def equivalence_sweep(candidates):
    """Count candidates, valid ones, and route disagreements."""
    seen = valid = disagreements = 0
    for candidate in candidates:
        seen += 1
        accepted = not check_structure(candidate)
        built = construct_via_operations(candidate)
        reachable = built is not None and built == candidate
        if accepted != reachable:
            disagreements += 1
        valid += accepted
    return seen, valid, disagreements


class TestBindingLayerEquivalence:
    def test_empty_model_is_valid_and_reachable(self):
        assert check_structure(new_empty_model()) == []
        assert construct_via_operations(new_empty_model()) == new_empty_model()

    def test_exhaustive_two_vps_three_variants(self):
        seen, valid, disagreements = equivalence_sweep(
            enumerate_binding_candidates(("P", "Q"), ("a", "b", "c"))
        )
        assert disagreements == 0
        assert seen == 12648 and valid == 2400

    def test_exhaustive_three_vps_three_variants(self):
        seen, valid, disagreements = equivalence_sweep(
            enumerate_binding_candidates(("P", "Q", "R"), ("a", "b", "c"))
        )
        assert disagreements == 0
        assert seen == 108048

    def test_sampled_three_vps_four_variants(self):
        # the full space holds ~1.67M candidates; a fixed stride keeps the
        # sweep deterministic and still touches every region of it
        seen, valid, disagreements = equivalence_sweep(
            enumerate_binding_candidates(
                ("P", "Q", "R"), ("a", "b", "c", "d"), stride=41
            )
        )
        assert disagreements == 0
        assert seen > 40000

    def test_raw_dependency_sets(self):
        # free-form dependency sets cover dangling endpoints and variants
        # bound twice, which the per-variant enumerator cannot produce
        seen, valid, disagreements = equivalence_sweep(
            enumerate_raw_dependency_candidates(("P", "Q"), ("a", "b"))
        )
        assert disagreements == 0
        assert seen == 592


class TestClosureUnderOperations:
    def test_every_reachable_successor_is_valid(self):
        menu = operation_menu(("P", "Q"), ("a", "b", "c"))
        valid_models = [
            c
            for c in enumerate_binding_candidates(("P", "Q"), ("a", "b", "c"))
            if not check_structure(c)
        ]
        sample = valid_models[::3]
        assert len(sample) >= 700
        for model in sample:
            for label, operation in menu:
                try:
                    successor = operation(model)
                except OvmRbacError:
                    continue
                assert check_structure(successor) == [], label


class TestConstraintLayerEquivalence:
    def test_all_closed_exclusive_layers_agree(self):
        base = constraint_base_model()
        seen = disagreements = 0
        for _, constraints in enumerate_constraint_layers():
            seen += 1
            candidate = Model(
                variation_points=base.variation_points,
                variants=base.variants,
                dependencies=base.dependencies,
                alt_groups=base.alt_groups,
                constraints=constraints,
            )
            accepted = not check_structure(candidate)
            built = construct_via_operations(candidate)
            reachable = built is not None and built == candidate
            if accepted != reachable:
                disagreements += 1
        assert seen == len(PAIR_STATES) ** 6
        assert disagreements == 0

    def test_every_closed_layer_is_actually_valid(self):
        base = constraint_base_model()
        for _, constraints in enumerate_constraint_layers():
            candidate = Model(
                variation_points=base.variation_points,
                variants=base.variants,
                dependencies=base.dependencies,
                alt_groups=base.alt_groups,
                constraints=constraints,
            )
            assert check_structure(candidate) == []

    def test_broken_layers_are_rejected_and_unreachable(self):
        base = constraint_base_model()
        stride_count = 0
        for index, (states, constraints) in enumerate(enumerate_constraint_layers()):
            if index % 97:
                continue
            for excludes in [c for c in constraints if c.kind.value == "excludes"]:
                stride_count += 1
                broken = Model(
                    variation_points=base.variation_points,
                    variants=base.variants,
                    dependencies=base.dependencies,
                    alt_groups=base.alt_groups,
                    constraints=constraints - {excludes},
                )
                assert check_structure(broken) != []
                built = construct_via_operations(broken)
                assert built is None or built != broken
        assert stride_count > 100


def random_small_policy(rng, model):
    """A policy with up to 3 roles and 12 single-object grants."""
    policy = new_empty_policy()
    users = ("u1", "u2", "u3")
    roles = [f"role{i}" for i in range(1, rng.randint(2, 4))]
    for user in users:
        policy = add_user(policy, user)
    for role in roles:
        policy = add_role(policy, role)
    for user in users:
        for role in roles:
            if rng.random() < 0.5:
                policy = assign_user(policy, user, role)
    element_pool = sorted(obj.text for obj in element_object_ids(model))
    pool = [f"set:{c.value}" for c in Category] + element_pool + [
        "vp:Ghost VP",
        "variant:Ghost",
        "dep:Ghost->Ghost VP",
        "altgroup:Ghost VP",
        "constraint:requires:variant:Ghost:vp:Ghost VP",
    ]
    for _ in range(rng.randint(1, 12)):
        policy = grant_permission2(
            policy,
            [ObjectId(rng.choice(pool))],
            rng.choice(OPERATION_CATALOG),
            rng.choice(roles),
        )
    return policy


class TestAccessExpansionEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_check_access_matches_materialized_grants(
        self, seed, example_model
    ):
        rng = random.Random(1000 + seed)
        policy = random_small_policy(rng, example_model)
        allowed = expansion_allowed_triples(policy, example_model)
        elements = sorted(obj.text for obj in element_object_ids(example_model))
        users = ("u1", "u2", "u3", "stranger")
        disagreements = []
        for user in users:
            for operation in OPERATION_CATALOG:
                for element in elements:
                    got = check_access(
                        policy,
                        example_model,
                        user,
                        operation,
                        ObjectId(element),
                    )
                    expected = (user, operation, element) in allowed
                    if (got is Decision.ALLOW) != expected:
                        disagreements.append((user, operation, element))
        assert disagreements == []


def random_guarded_model(rng, steps):
    """A model grown by random requests through the guarded operations.

    Random requests seldom leave two variants free to form an alternative
    group, so groups of two fresh variants are then requested at some
    variation points.
    """
    requests = [random_model_request(rng) for _ in range(steps)]
    for vp in rng.sample(VP_POOL, 4):
        members = (f"{vp} a", f"{vp} b")
        requests += [OpRequest("addVariant", (name,)) for name in members]
        requests.append(OpRequest("addAltGroup", (frozenset(members), 1, 2, vp)))
    model = new_empty_model()
    for request in requests:
        try:
            model = apply_model_request(model, request)
        except OvmRbacError:
            pass
    return model


def random_view_policy(rng, model):
    """Six roles with category, exact and dangling grants, and one without.

    Each user holds two or three roles, at times the one without grants.
    """
    elements = sorted(obj.text for obj in element_object_ids(model))
    dangling = ["vp:Ghost VP", "variant:Ghost", "dep:Ghost->Ghost VP",
                "altgroup:Ghost VP", "constraint:excludes:vp:Ghost VP:variant:Ghost"]
    categories = [f"set:{c.value}" for c in Category]
    policy = new_empty_policy()
    roles = [f"role{i}" for i in range(6)]
    for role in roles + ["idle"]:
        policy = add_role(policy, role)
    for role in roles:
        for pool, count in ((categories, 2), (elements, 8), (dangling, 2)):
            for text in rng.sample(pool, count):
                operation = rng.choice(OPERATION_CATALOG)
                policy = grant_permission2(policy, [ObjectId(text)], operation, role)
    for i in range(5):
        policy = add_user(policy, f"user{i}")
        for role in rng.sample(roles + ["idle"], rng.randint(2, 3)):
            policy = assign_user(policy, f"user{i}", role)
    return policy


def view_case(seed):
    """The random generator, model and policy of one view-equivalence seed."""
    rng = random.Random(7000 + seed)
    model = random_guarded_model(rng, 400 + 60 * seed)
    return rng, model, random_view_policy(rng, model)


def fold_views(views):
    """The union of views: components, stubs and provenance."""
    parts = {
        f.name: frozenset().union(*(getattr(v, f.name) for v in views))
        for f in fields(Model)
    }
    provenance = {}
    for view in views:
        for element, perms in view.provenance.items():
            provenance[element] = provenance.get(element, frozenset()) | perms
    visible_vps = {p.name for p in parts["variation_points"]}
    stubs = frozenset().union(*(v.vp_stubs for v in views)) - visible_vps
    return ViewModel(**parts, vp_stubs=stubs, provenance=provenance)


class TestViewProjectionEquivalence:
    READ = frozenset({"read", "readAltGroup", "readOptDep", "readManDep"})

    @pytest.mark.parametrize("seed", range(6))
    def test_views_match_materialized_grants(self, seed):
        rng, model, policy = view_case(seed)
        assert 60 <= len(element_object_ids(model)) <= 150
        filters = [(ANY_OPERATION, lambda op: True), (READ_LIKE, self.READ.__contains__)]
        for operation in rng.sample(OPERATION_CATALOG, 3):
            filters.append((exact_operation(operation), operation.__eq__))
        for op_filter, allows in filters:
            views = {}
            for role in sorted(policy.roles - {"idle"}):
                view = views[role] = derive_view(policy, model, role, op_filter)
                expected = projected_view(policy, model, {role}, allows)
                assert (view.element_ids(), view.vp_stubs) == expected, role
                expected = projected_provenance(policy, model, {role}, allows)
                assert view.provenance == expected, role
                again = derive_view(policy, view, role, op_filter)
                assert (again, hash(again)) == (view, hash(view)), role
            for user in sorted(policy.users):
                roles = {r for u, r in policy.user_assignments if u == user}
                mine = user_view(policy, model, user, op_filter)
                assert mine == fold_views([views[r] for r in roles if r in views])
                expected = projected_view(policy, model, roles, allows)
                assert (mine.element_ids(), mine.vp_stubs) == expected, user
                expected = projected_provenance(policy, model, roles, allows)
                assert mine.provenance == expected, user
                again = user_view(policy, mine, user, op_filter)
                assert (again, hash(again)) == (mine, hash(mine)), user
            with pytest.raises(NoPermissions):
                derive_view(policy, model, "idle", op_filter)


class TestAccessDecisionEquivalence:
    """check_access on the models and policies of the view test.

    An element id of the model is decided by the materialized grants. Any
    other id, a category id or one that names no element, is decided from
    first principles: a grant of that exact id, a grant of ``set:OBJECTS``,
    or, for a creation operation, a grant of the category the id spells.
    """

    CREATION = frozenset({"add_AltGroup", "add_Constraint"})
    DANGLING = [
        "vp:Ghost VP",
        "variant:Ghost",
        "dep:Ghost->Ghost VP",
        "altgroup:Ghost VP",
        *(
            f"constraint:{kind}:{a}:Ghost {a}:{b}:Ghost {b}"
            for kind in ("requires", "excludes")
            for a in ("variant", "vp")
            for b in ("variant", "vp")
        ),
    ]

    @staticmethod
    def spelled_category(text):
        """``set:`` plus the category an id's spelling alone names, or None."""
        prefix, _, rest = text.partition(":")
        if prefix in ("variant", "altgroup"):
            return f"set:{prefix.upper()}"
        if prefix == "constraint":
            kind, source, _, target, _ = rest.split(":")
            short = {"variant": "V", "vp": "VP"}
            return f"set:{kind.upper()}_{short[source]}_{short[target]}"
        return None

    @pytest.mark.parametrize("seed", range(6))
    def test_check_access_matches_grants(self, seed):
        _, model, policy = view_case(seed)
        present = sorted(obj.text for obj in element_object_ids(model))
        allowed = expansion_allowed_triples(policy, model)
        held = {}  # (user, operation) -> the object ids granted to the user
        for user, role in policy.user_assignments:
            for perm, holder in policy.permission_assignments:
                if holder == role:
                    held.setdefault((user, perm.operation), set()).add(perm.object.text)
        absent = [f"set:{c.value}" for c in Category] + self.DANGLING
        disagreements, allows = [], 0
        for user in sorted(policy.users) + ["stranger"]:
            for operation in OPERATION_CATALOG + ("explode",):
                grants = held.get((user, operation), set())
                expected = {text for text in present if (user, operation, text) in allowed}
                for text in absent:
                    category = self.spelled_category(text)
                    if text in grants or "set:OBJECTS" in grants or (
                        operation in self.CREATION and category in grants
                    ):
                        expected.add(text)
                for text in present + absent:
                    got = check_access(policy, model, user, operation, ObjectId(text))
                    if (got is Decision.ALLOW) != (text in expected):
                        disagreements.append((user, operation, text))
                allows += len(expected)
        assert disagreements == []
        assert allows


class TestDecisionViewAgreement:
    """check_access and the views read one permission-assignment relation.

    For every user, catalogue operation and existing element, the decision is
    Allow exactly when the user's view under that one operation lists, in the
    element's provenance, a grant keyed to the element: its id, its category
    or ``set:OBJECTS``. A variant that a visible relation carries is in the
    view without such a grant, so plain view membership is not the rule.
    """

    @staticmethod
    def disagreements(policy, model):
        """The (user, operation, id) triples on which the two disagree, and
        how many triples were compared and allowed."""
        keys = {}  # element id -> the granted object ids keyed to it
        for name, texts in materialized_categories(model).items():
            for text in texts:
                keys.setdefault(text, {text}).add(f"set:{name}")
        found, compared, allows = [], 0, 0
        for user in sorted(policy.users):
            for operation in OPERATION_CATALOG:
                view = user_view(policy, model, user, exact_operation(operation))
                for text in sorted(keys):
                    viewed = any(
                        perm.object.text in keys[text]
                        for perm in view.provenance.get(text, ())
                    )
                    got = check_access(policy, model, user, operation, ObjectId(text))
                    if (got is Decision.ALLOW) != viewed:
                        found.append((user, operation, text))
                    compared += 1
                    allows += viewed
        return found, compared, allows

    def test_on_the_fixture(self, example_model, example_policy):
        found, compared, allows = self.disagreements(example_policy, example_model)
        assert found == []
        assert compared == 3 * len(OPERATION_CATALOG) * 49 and allows

    @pytest.mark.parametrize("seed", range(6))
    def test_on_random_policies(self, seed):
        _, model, policy = view_case(seed)
        found, compared, allows = self.disagreements(policy, model)
        assert found == []
        assert compared and allows


def reference_dot(shown):
    """The DOT text of a model or view, spelled out from the raw components.

    Nodes: variation points by (name, kind), then stubs in grey, then
    variants, each by name. Edges: dependencies by (variant, vp, kind), group
    member edges by group (vp, members, min, max) and then member, and each
    held excludes closure once, by its least held direction. A backslash and
    a quote are escaped wherever a name is quoted.
    """
    def escape(text):
        return text.replace("\\", "\\\\").replace('"', '\\"')

    def vp_node(name, kind):
        attrs = [f'label="VP\\n{escape(name)}"', "shape=triangle"]
        if kind == "optional":
            attrs.append("style=dashed")
        if kind is None:
            attrs += ["color=gray", "fontcolor=gray"]
        return f'  "{escape("vp:" + name)}" [{", ".join(attrs)}];'

    def edge(source, target, attrs):
        return f'  "{escape(source)}" -> "{escape(target)}" [{attrs}];'

    def key(c):
        return (c.kind.value, c.source.universe.value, c.source.name,
                c.target.universe.value, c.target.name)

    keys = {key(c) for c in shown.constraints}
    lines = ["digraph ovm {"]
    for name, kind in sorted((p.name, p.kind.value) for p in shown.variation_points):
        lines.append(vp_node(name, kind))
    lines += [vp_node(name, None) for name in sorted(getattr(shown, "vp_stubs", ()))]
    for name in sorted(v.name for v in shown.variants):
        lines.append(f'  "{escape("variant:" + name)}" [label="V\\n{escape(name)}", shape=box];')
    for variant, vp, kind in sorted((d.variant, d.vp, d.kind.value) for d in shown.dependencies):
        style = "solid" if kind == "mandatory" else "dashed"
        lines.append(edge(f"variant:{variant}", f"vp:{vp}", f"style={style}"))
    groups = sorted((g.vp, sorted(g.variants), g.min_card, g.max_card) for g in shown.alt_groups)
    for vp, members, low, high in groups:
        for member in members:
            label = f'style=dashed, label="[{low}..{high}]"'
            lines.append(edge(f"variant:{member}", f"vp:{vp}", label))
    for kind, su, sn, tu, tn in sorted(keys):
        mirror = (kind, tu, tn, su, sn)
        if kind == "excludes" and mirror < (kind, su, sn, tu, tn) and mirror in keys:
            continue  # drawn once, by its least held direction
        attrs = 'dir=both, label="excludes"' if kind == "excludes" else 'label="requires"'
        lines.append(edge(f"{su}:{sn}", f"{tu}:{tn}", f"style=dashed, {attrs}"))
    return "\n".join(lines + ["}"]) + "\n"


def awkward_names_case():
    """A model whose names hold quotes and trailing backslashes in every
    component, with a role per category and one per element."""
    steps = [
        ("addManVP", ('say "hi" VP',)), ("addOptVP", ("back\\",)),
        ("addOptVP", ('q"',)), ("addManVP", ('"\\',)),
        *(("addVariant", (name,)) for name in ("x\\", 'y"z', "w", 'v"\\', "u")),
        ("addDependency", ("x\\", 'say "hi" VP', VariabilityKind.MANDATORY)),
        ("addDependency", ("u", "back\\", VariabilityKind.OPTIONAL)),
        ("addAltGroup", (frozenset({'y"z', "w"}), 1, 1, 'q"')),
        ("addConstraint", (ConstraintKind.REQUIRES, EndpointRef(Universe.VARIANT, "x\\"),
                           EndpointRef(Universe.VP, 'q"'))),
        ("addConstraint", (ConstraintKind.EXCLUDES, EndpointRef(Universe.VARIANT, 'v"\\'),
                           EndpointRef(Universe.VP, "back\\"))),
        ("addConstraint", (ConstraintKind.EXCLUDES, EndpointRef(Universe.VARIANT, 'y"z'),
                           EndpointRef(Universe.VARIANT, "x\\"))),
    ]
    model = new_empty_model()
    for op, args in steps:
        model = apply_model_request(model, OpRequest(op, args))
    policy = new_empty_policy()
    texts = [f"set:{c.value}" for c in Category] + sorted(
        obj.text for obj in element_object_ids(model)
    )
    for i, text in enumerate(texts):
        policy = add_role(policy, f"r{i}")
        policy = grant_permission2(policy, [ObjectId(text)], "read", f"r{i}")
    return model, policy


class TestDotReference:
    """export_dot draws every view exactly as the reference renderer does."""

    @pytest.mark.parametrize("seed", range(6))
    def test_views_of_random_policies(self, seed):
        rng, model, policy = view_case(seed)
        filters = [ANY_OPERATION, READ_LIKE]
        filters += [exact_operation(op) for op in rng.sample(OPERATION_CATALOG, 3)]
        assert export_dot(model) == reference_dot(model)
        for op_filter in filters:
            views = [
                derive_view(policy, model, role, op_filter)
                for role in sorted(policy.roles - {"idle"})
            ]
            views += [user_view(policy, model, u, op_filter) for u in sorted(policy.users)]
            for view in views:
                assert export_dot(view) == reference_dot(view)

    def test_names_with_quotes_and_backslashes(self):
        model, policy = awkward_names_case()
        assert 'q\\"' in reference_dot(model) and "back\\\\" in reference_dot(model)
        assert export_dot(model) == reference_dot(model)
        for role in sorted(policy.roles):
            view = derive_view(policy, model, role)
            assert export_dot(view) == reference_dot(view), role
