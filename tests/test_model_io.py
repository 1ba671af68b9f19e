"""Document round-trips, determinism, rejection cases, and DOT export."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ovmrbac
from ovmrbac import (
    ConstraintKind,
    OvmRbacError,
    ParseError,
    READ_LIKE,
    StructuralViolation,
    VariabilityKind,
    VariationPoint,
    Variant,
    ViewModel,
    derive_view,
    export_dot,
    load_model,
    load_policy,
    new_empty_model,
    new_empty_policy,
    save_model,
    save_policy,
)
from ovmrbac.cli import main


class TestModelDocuments:
    def test_round_trip_identity(self, example_model):
        text = save_model(example_model)
        assert load_model(text) == example_model

    def test_byte_determinism(self, example_model):
        assert save_model(example_model) == save_model(example_model)
        reloaded = load_model(save_model(example_model))
        assert save_model(reloaded) == save_model(example_model)

    def test_empty_model_round_trip(self):
        assert load_model(save_model(new_empty_model())) == new_empty_model()

    def test_excludes_stored_once_per_pair(self, example_model):
        data = json.loads(save_model(example_model))
        excludes = [c for c in data["constraints"] if c["kind"] == "excludes"]
        assert len(excludes) == 1
        # and re-closed into both ordered pairs on load
        reloaded = load_model(save_model(example_model))
        pairs = {
            (c.source.name, c.target.name)
            for c in reloaded.constraints
            if c.kind is ConstraintKind.EXCLUDES
        }
        assert pairs == {("Matlab", "Sc.Linux"), ("Sc.Linux", "Matlab")}

    def test_malformed_json_is_parse_error_with_position(self):
        with pytest.raises(ParseError) as exc:
            load_model("{ nope")
        assert "line 1" in str(exc.value)

    def test_wrong_shape_is_parse_error(self):
        with pytest.raises(ParseError):
            load_model("[]")
        with pytest.raises(ParseError):
            load_model('{"variation_points": [{"name": "X", "kind": "sometimes"}]}')
        with pytest.raises(ParseError):
            load_model('{"variants": [42]}')

    def test_dangling_dependency_rejected(self):
        text = json.dumps(
            {
                "variation_points": [],
                "variants": [],
                "dependencies": [
                    {"variant": "a", "vp": "Missing VP", "kind": "mandatory"}
                ],
                "alt_groups": [],
                "constraints": [],
            }
        )
        with pytest.raises(StructuralViolation) as exc:
            load_model(text)
        assert "dangling-reference" in str(exc.value)

    def test_vp_in_both_kinds_rejected(self):
        text = json.dumps(
            {
                "variation_points": [
                    {"name": "X", "kind": "mandatory"},
                    {"name": "X", "kind": "optional"},
                ],
                "variants": [],
                "dependencies": [],
                "alt_groups": [],
                "constraints": [],
            }
        )
        with pytest.raises(StructuralViolation) as exc:
            load_model(text)
        assert "vp-kind-overlap" in str(exc.value)

    def test_bad_name_rejected(self):
        text = json.dumps({"variants": ["  padded  "]})
        with pytest.raises(StructuralViolation):
            load_model(text)

    def test_incomplete_model_still_loads(self):
        # completeness is a validate-time concern, not a load-time one
        model = load_model(json.dumps({"variants": ["loner"]}))
        assert len(model.variants) == 1


class TestLoadingIsTotal:
    """Bad documents raise OvmRbacError, never another exception."""

    def test_unhashable_group_member(self, example_model):
        doc = json.loads(save_model(example_model))
        doc["alt_groups"][0]["variants"] = [[1], "Password", "SSLAuth"]
        with pytest.raises(OvmRbacError):
            load_model(json.dumps(doc))

    @pytest.mark.parametrize("load", [load_model, load_policy])
    def test_deep_nesting(self, load):
        with pytest.raises(OvmRbacError):
            load("[" * 100000)

    @pytest.mark.parametrize("load", [load_model, load_policy])
    def test_integer_beyond_the_digit_limit(self, load):
        with pytest.raises(OvmRbacError):
            load('{"x": ' + "9" * 5000 + "}")

    def test_boolean_cardinality(self, example_model):
        doc = json.loads(save_model(example_model))
        doc["alt_groups"][0]["min"] = True
        with pytest.raises(OvmRbacError):
            load_model(json.dumps(doc))

    @pytest.mark.parametrize("key", ["users", "roles", "operations"])
    @pytest.mark.parametrize("bad_id", [" ", "", " padded"])
    def test_policy_ids_follow_the_registration_rule(self, key, bad_id):
        with pytest.raises(OvmRbacError):
            load_policy(json.dumps({key: [bad_id]}))

    @pytest.mark.parametrize(
        "doc",
        [
            {"variation_points": [{"name": "A\ud800", "kind": "mandatory"}]},
            {"variants": ["B\ud800"]},
        ],
        ids=["vp", "variant"],
    )
    def test_names_utf8_cannot_encode(self, doc):
        text = json.dumps(doc)  # the name as a JSON \u escape
        assert "\\ud800" in text
        with pytest.raises(OvmRbacError, match="cannot be encoded as UTF-8"):
            load_model(text)

    @pytest.mark.parametrize(
        "doc",
        [
            {"users": ["U\ud800"]},
            {"roles": ["R\ud800"]},
            {"operations": ["op\ud800"]},
            {
                "roles": ["R"],
                "operations": ["read"],
                "grants": [{"role": "R", "operation": "read", "objects": ["vp:A\ud800"]}],
            },
        ],
        ids=["user", "role", "operation", "object"],
    )
    def test_ids_utf8_cannot_encode(self, doc):
        with pytest.raises(OvmRbacError, match="cannot be encoded as UTF-8"):
            load_policy(json.dumps(doc))

    def test_check_on_a_bad_operation_id_exits_two(self, tmp_path, capsys):
        model, policy = tmp_path / "model.json", tmp_path / "policy.json"
        model.write_text(save_model(new_empty_model()))
        policy.write_text(json.dumps({"operations": [" ", ""]}))
        argv = ["check", str(model), str(policy), "--user", "u", "--op", " "]
        assert main([*argv, "--object", "vp:x"]) == 2
        assert "operation id" in capsys.readouterr().err


class TestPolicyDocuments:
    def test_round_trip_identity(self, example_policy):
        assert load_policy(save_policy(example_policy)) == example_policy

    def test_byte_determinism(self, example_policy):
        assert save_policy(example_policy) == save_policy(example_policy)

    def test_fresh_policy_round_trip(self):
        assert load_policy(save_policy(new_empty_policy())) == new_empty_policy()

    def test_truly_empty_document(self):
        policy = load_policy("{}")
        assert policy.users == frozenset()
        assert policy.roles == frozenset()
        assert policy.operations == frozenset()
        assert policy.permission_assignments == frozenset()

    def test_grant_with_unregistered_role_rejected(self):
        text = json.dumps(
            {
                "users": [],
                "roles": [],
                "operations": ["read"],
                "user_assignments": [],
                "grants": [
                    {"objects": ["set:OBJECTS"], "operation": "read", "role": "Ghost"}
                ],
            }
        )
        with pytest.raises(StructuralViolation) as exc:
            load_policy(text)
        assert type(exc.value) is StructuralViolation
        assert str(exc.value) == "grant names unregistered role 'Ghost'"

    def test_grant_with_unregistered_operation_rejected(self):
        text = json.dumps(
            {
                "roles": ["R"],
                "grants": [
                    {"objects": ["set:OBJECTS"], "operation": "warp", "role": "R"}
                ],
            }
        )
        with pytest.raises(StructuralViolation) as exc:
            load_policy(text)
        assert type(exc.value) is StructuralViolation
        assert str(exc.value) == "grant names unregistered operation 'warp'"

    def test_assignment_with_unregistered_user_rejected(self):
        text = json.dumps(
            {"roles": ["R"], "user_assignments": [{"user": "u", "role": "R"}]}
        )
        with pytest.raises(StructuralViolation) as exc:
            load_policy(text)
        assert type(exc.value) is StructuralViolation
        assert str(exc.value) == "assignment names unregistered user 'u'"

    def test_assignment_with_unregistered_role_rejected(self):
        text = json.dumps(
            {"users": ["u"], "user_assignments": [{"user": "u", "role": "R"}]}
        )
        with pytest.raises(StructuralViolation) as exc:
            load_policy(text)
        assert type(exc.value) is StructuralViolation
        assert str(exc.value) == "assignment names unregistered role 'R'"

    def test_bad_object_id_is_parse_error(self):
        text = json.dumps(
            {
                "roles": ["R"],
                "operations": ["read"],
                "grants": [{"objects": ["orbit:moon"], "operation": "read", "role": "R"}],
            }
        )
        with pytest.raises(ParseError):
            load_policy(text)


class TestDotExport:
    def test_fixture_counts(self, example_model):
        dot = export_dot(example_model)
        assert dot.count("shape=triangle") == 8
        assert dot.count("shape=box") == 17
        assert dot.count('label="excludes"') == 1
        assert 'dir=both' in dot
        assert dot.count('label="requires"') == 8

    def test_group_edges_carry_cardinality(self, example_model):
        dot = export_dot(example_model)
        assert dot.count('label="[1..1]"') == 5  # 3 + 2 member edges

    def test_dependency_styles(self, example_model):
        dot = export_dot(example_model)
        man_edges = [
            line for line in dot.splitlines() if "[style=solid]" in line
        ]
        assert len(man_edges) == 5

    def test_empty_model(self):
        assert export_dot(new_empty_model()) == "digraph ovm {\n}\n"

    def test_determinism(self, example_model, example_policy):
        assert export_dot(example_model) == export_dot(example_model)
        # a view is drawn from itself alone: the model is not read
        for role in sorted(example_policy.roles):
            view = derive_view(example_policy, example_model, role)
            assert export_dot(view) == export_dot(example_model, view), role

    def test_view_export_greys_stubs(self, example_model, example_policy):
        view = derive_view(example_policy, example_model, "Security Expert", READ_LIKE)
        dot = export_dot(example_model, view)
        assert dot.count("shape=box") == 3
        stub_lines = [l for l in dot.splitlines() if "fontcolor=gray" in l]
        assert len(stub_lines) == 1
        assert '"vp:Authentication VP"' in stub_lines[0]
        # the stub hides the point's kind: no dashed styling on the node
        assert "style=dashed" not in stub_lines[0]

    def test_quoting_of_awkward_names(self):
        from ovmrbac import add_man_vp

        model = add_man_vp(new_empty_model(), 'He said "hi" VP')
        dot = export_dot(model)
        assert '\\"hi\\"' in dot

    def test_labels_escape_names(self):
        """A quote or a trailing backslash in a name stays inside its label."""
        view = ViewModel(
            variation_points=frozenset({
                VariationPoint('a"b', VariabilityKind.MANDATORY),
                VariationPoint("x\\", VariabilityKind.OPTIONAL),
            }),
            variants=frozenset({Variant("c\\")}),
            vp_stubs=frozenset({'s"\\'}),
        )
        assert export_dot(view).splitlines()[1:-1] == [
            '  "vp:a\\"b" [label="VP\\na\\"b", shape=triangle];',
            '  "vp:x\\\\" [label="VP\\nx\\\\", shape=triangle, style=dashed];',
            '  "vp:s\\"\\\\" [label="VP\\ns\\"\\\\", shape=triangle, color=gray, '
            'fontcolor=gray];',
            '  "variant:c\\\\" [label="V\\nc\\\\", shape=box];',
        ]


# Builds, in a fresh interpreter, one model whose components tie on every key
# short of the whole element: a variation point of both kinds, a dependency of
# both kinds, and two groups that differ only in cardinality. Prints the
# SHA-256 of its document and of its DOT text.
_TIES_SCRIPT = """
import hashlib
from ovmrbac import (
    AltGroup, Dependency, Model, VariabilityKind, VariationPoint, Variant,
    export_dot, save_model,
)
MAN, OPT = VariabilityKind.MANDATORY, VariabilityKind.OPTIONAL
model = Model(
    variation_points=frozenset({VariationPoint("X", MAN), VariationPoint("X", OPT)}),
    variants=frozenset({Variant("a"), Variant("b"), Variant("c")}),
    dependencies=frozenset({Dependency("a", "X", MAN), Dependency("a", "X", OPT)}),
    alt_groups=frozenset({
        AltGroup(frozenset({"b", "c"}), 1, 1, "X"),
        AltGroup(frozenset({"b", "c"}), 1, 2, "X"),
    }),
)
for text in (save_model(model), export_dot(model)):
    print(hashlib.sha256(text.encode()).hexdigest())
"""


def test_equal_values_give_equal_bytes_under_every_hash_seed():
    """Document and DOT order do not fall back on frozenset iteration order."""
    src = Path(ovmrbac.__file__).resolve().parent.parent
    runs = []
    for seed in range(1, 5):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-c", _TIES_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        runs.append(result.stdout.split())
    assert len({document for document, _ in runs}) == 1
    assert len({dot for _, dot in runs}) == 1
