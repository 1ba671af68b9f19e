"""The CLI is a thin adapter: outputs and exit codes mirror the library."""

import json
import os
import stat

import pytest

from ovmrbac.cli import main


@pytest.fixture()
def example_dir(tmp_path):
    assert main(["init-example", str(tmp_path)]) == 0
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInitExample:
    def test_writes_both_documents(self, example_dir):
        model = json.loads((example_dir / "model.json").read_text())
        policy = json.loads((example_dir / "policy.json").read_text())
        kinds = [p["kind"] for p in model["variation_points"]]
        assert kinds.count("mandatory") == 6
        assert kinds.count("optional") == 2
        assert len(policy["users"]) == 3
        assert len(policy["roles"]) == 3
        assert len(policy["user_assignments"]) == 3

    def test_deterministic_bytes(self, tmp_path, capsys):
        first = tmp_path / "one"
        second = tmp_path / "two"
        assert main(["init-example", str(first)]) == 0
        assert main(["init-example", str(second)]) == 0
        capsys.readouterr()
        assert (first / "model.json").read_bytes() == (second / "model.json").read_bytes()
        assert (first / "policy.json").read_bytes() == (second / "policy.json").read_bytes()

    def test_explain_prints_normalization_table(self, tmp_path, capsys):
        code, out, _ = run(capsys, "init-example", str(tmp_path), "--explain")
        assert code == 0
        assert "SSLAAuth" in out and "SSLAuth" in out
        assert "Grid Deployment VP" in out


class TestValidate:
    def test_clean_fixture(self, example_dir, capsys):
        code, out, _ = run(capsys, "validate", str(example_dir / "model.json"))
        assert code == 0
        assert out == ""

    def test_violations_exit_one(self, example_dir, capsys):
        path = example_dir / "model.json"
        doc = json.loads(path.read_text())
        doc["alt_groups"] = [
            g for g in doc["alt_groups"] if g["vp"] != "Authentication VP"
        ]
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        lines = out.strip().splitlines()
        assert len(lines) == 3  # Kerberos, Password, SSLAuth unbound
        assert lines == sorted(lines)
        assert all("variant-without-dependency" in line for line in lines)

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "validate", "/no/such/file.json")
        assert code == 2

    def test_undecodable_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"variants": ["\xff"]}')
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "cannot read" in err

    def test_unhashable_group_member_exits_two(self, example_dir, capsys):
        path = example_dir / "model.json"
        doc = json.loads(path.read_text())
        doc["alt_groups"][0]["variants"] = [[1], "Password", "SSLAuth"]
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert err.startswith("error: ")


class TestApply:
    def test_applied_rewrites_model(self, example_dir, capsys):
        model = str(example_dir / "model.json")
        policy = str(example_dir / "policy.json")
        code, out, _ = run(
            capsys, "apply", model, policy, "--user", "Alice",
            "--op", "addManVP", "New VP",
        )
        assert code == 0
        assert "decision=allow" in out and "outcome=applied" in out
        assert "New VP" in (example_dir / "model.json").read_text()

    def test_denied_exits_one_and_keeps_file(self, example_dir, capsys):
        model = str(example_dir / "model.json")
        before = (example_dir / "model.json").read_bytes()
        code, out, _ = run(
            capsys, "apply", model, str(example_dir / "policy.json"),
            "--user", "Helen", "--op", "removeManVP", "OS VP",
        )
        assert code == 1
        assert "decision=deny" in out
        assert (example_dir / "model.json").read_bytes() == before

    def test_rejected_exits_three_and_keeps_file(self, example_dir, capsys):
        model = str(example_dir / "model.json")
        before = (example_dir / "model.json").read_bytes()
        code, out, _ = run(
            capsys, "apply", model, str(example_dir / "policy.json"),
            "--user", "Alice", "--op", "removeManVP", "CPU VP",
        )
        assert code == 3
        assert "ElementInUse" in out
        assert (example_dir / "model.json").read_bytes() == before

    def test_bad_op_usage_exits_two(self, example_dir, capsys):
        code, _, err = run(
            capsys, "apply", str(example_dir / "model.json"),
            str(example_dir / "policy.json"),
            "--user", "Alice", "--op", "addManVP",
        )
        assert code == 2
        assert "expects" in err

    def test_structured_ops_parse(self, example_dir, capsys):
        model = str(example_dir / "model.json")
        policy = str(example_dir / "policy.json")
        # grant Alice's role the needed write first
        assert main([
            "grant", policy, "--objects", "set:OPT",
            "--op", "writeOptDep", "--role", "Grid Node Expert",
        ]) == 0
        assert main([
            "grant", policy, "--objects", "set:VARIANT",
            "--op", "add_Variant", "--role", "Grid Node Expert",
        ]) == 0
        capsys.readouterr()
        code, out, _ = run(
            capsys, "apply", model, policy, "--user", "Alice",
            "--op", "addVariant", "Octave",
        )
        assert code == 0
        code, out, _ = run(
            capsys, "apply", model, policy, "--user", "Alice",
            "--op", "addDependency", "Octave", "Library Required VP", "optional",
        )
        assert code == 0
        assert "outcome=applied" in out


class TestWrites:
    def test_replaced_file_keeps_its_mode(self, example_dir, capsys):
        model = example_dir / "model.json"
        os.chmod(model, 0o640)
        code, _, _ = run(
            capsys, "apply", str(model), str(example_dir / "policy.json"),
            "--user", "Alice", "--op", "addManVP", "New VP",
        )
        assert code == 0
        assert "New VP" in model.read_text()
        assert stat.S_IMODE(model.stat().st_mode) == 0o640
        assert sorted(p.name for p in example_dir.iterdir()) == [
            "model.json", "policy.json"
        ]

    def test_new_file_gets_the_umask_mode(self, example_dir, tmp_path, capsys):
        plain = tmp_path / "plain.txt"
        plain.write_text("")
        dot_path = tmp_path / "view.dot"
        code, _, _ = run(
            capsys, "view", str(example_dir / "model.json"),
            str(example_dir / "policy.json"),
            "--role", "Security Expert", "--dot", str(dot_path),
        )
        assert code == 0
        assert dot_path.stat().st_mode == plain.stat().st_mode

    def test_write_failure_exits_two(self, example_dir, capsys):
        code, out, err = run(
            capsys, "view", str(example_dir / "model.json"),
            str(example_dir / "policy.json"),
            "--role", "Security Expert", "--dot", str(example_dir),
        )
        assert code == 2
        assert err.startswith("error: cannot write")
        assert out == ""
        assert sorted(p.name for p in example_dir.iterdir()) == [
            "model.json", "policy.json"
        ]


class TestGrantAssign:
    def test_grant_unknown_role_exits_two(self, example_dir, capsys):
        code, _, err = run(
            capsys, "grant", str(example_dir / "policy.json"),
            "--objects", "set:OBJECTS", "--op", "read", "--role", "Nobody",
        )
        assert code == 2
        assert "Nobody" in err

    def test_grant_element_object(self, example_dir, capsys):
        policy = str(example_dir / "policy.json")
        code, out, _ = run(
            capsys, "grant", policy,
            "--objects", "altgroup:Authentication VP",
            "--op", "readAltGroup", "--role", "Image Expert",
        )
        assert code == 0
        assert "altgroup:Authentication VP" in (example_dir / "policy.json").read_text()

    def test_assign_and_check(self, example_dir, capsys):
        model = str(example_dir / "model.json")
        policy = str(example_dir / "policy.json")
        code, out, _ = run(
            capsys, "check", model, policy, "--user", "Bob",
            "--op", "read", "--object", "vp:OS VP",
        )
        assert (code, out.strip()) == (1, "Deny")
        assert main(["assign", policy, "--user", "Bob", "--role", "Grid Node Expert"]) == 0
        capsys.readouterr()
        code, out, _ = run(
            capsys, "check", model, policy, "--user", "Bob",
            "--op", "read", "--object", "vp:OS VP",
        )
        assert (code, out.strip()) == (0, "Allow")


class TestCheck:
    @pytest.mark.parametrize(
        "user,op,obj,expected_code,expected",
        [
            ("Alice", "remove_Variation_Point", "set:MAN_VP", 0, "Allow"),
            ("Bob", "writeAltGroup", "altgroup:Authentication VP", 0, "Allow"),
            ("Bob", "read", "vp:OS VP", 1, "Deny"),
            ("Stranger", "read", "set:OBJECTS", 1, "Deny"),
        ],
    )
    def test_decisions(self, example_dir, capsys, user, op, obj, expected_code, expected):
        code, out, _ = run(
            capsys, "check", str(example_dir / "model.json"),
            str(example_dir / "policy.json"),
            "--user", user, "--op", op, "--object", obj,
        )
        assert (code, out.strip()) == (expected_code, expected)


class TestView:
    def test_role_view_lists_table_rows(self, example_dir, capsys):
        code, out, _ = run(
            capsys, "view", str(example_dir / "model.json"),
            str(example_dir / "policy.json"), "--role", "Grid Node Expert",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["permissions"] == [
            {"object": "set:MAN_VP", "operation": "add_Variation_Point"},
            {"object": "set:MAN_VP", "operation": "remove_Variation_Point"},
            {"object": "set:OBJECTS", "operation": "read"},
        ]
        assert len(doc["view"]["variation_points"]) == 8
        assert len(doc["view"]["variants"]) == 17

    def test_security_expert_read_filter(self, example_dir, capsys):
        code, out, _ = run(
            capsys, "view", str(example_dir / "model.json"),
            str(example_dir / "policy.json"),
            "--role", "Security Expert", "--filter", "read",
        )
        assert code == 0
        doc = json.loads(out)
        assert [g["vp"] for g in doc["view"]["alt_groups"]] == ["Authentication VP"]
        assert doc["view"]["vp_stubs"] == ["Authentication VP"]
        assert doc["view"]["variation_points"] == []

    def test_role_without_grants_exits_one(self, example_dir, capsys):
        policy = str(example_dir / "policy.json")
        doc = json.loads((example_dir / "policy.json").read_text())
        doc["roles"].append("Intern")
        (example_dir / "policy.json").write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "view", str(example_dir / "model.json"), policy,
            "--role", "Intern",
        )
        assert code == 1
        assert "no permissions" in err

    def test_user_view_and_dot(self, example_dir, capsys, tmp_path):
        dot_path = tmp_path / "view.dot"
        code, out, _ = run(
            capsys, "view", str(example_dir / "model.json"),
            str(example_dir / "policy.json"),
            "--user", "Helen", "--filter", "read", "--dot", str(dot_path),
        )
        assert code == 0
        dot = dot_path.read_text()
        assert dot.count("shape=box") == 2
        assert dot.count("fontcolor=gray") == 2

    def test_output_is_deterministic(self, example_dir, capsys):
        args = [
            "view", str(example_dir / "model.json"),
            str(example_dir / "policy.json"), "--role", "Image Expert",
        ]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestRender:
    def test_render_counts(self, example_dir, capsys):
        code, out, _ = run(capsys, "render", str(example_dir / "model.json"))
        assert code == 0
        assert out.count("shape=triangle") == 8
        assert out.count('label="excludes"') == 1
