"""The CLI is a thin adapter: outputs and exit codes mirror the library."""

import contextlib
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ovmrbac
from ovmrbac import save_model, save_policy
from ovmrbac.cli import main
from ovmrbac.fixture import build_example_model, build_example_policy
from ovmrbac.rbac import OPERATION_CATALOG
from ovmrbac.session import OPERATIONS


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

    def test_failed_second_write_replaces_nothing(self, tmp_path, capsys):
        (tmp_path / "policy.json").mkdir()
        code, out, err = run(capsys, "init-example", str(tmp_path))
        assert code == 2
        assert err.startswith("error: cannot write")
        assert out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["policy.json"]
        assert not any((tmp_path / "policy.json").iterdir())

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


class TestClosedStdout:
    """A closed stdout is an I/O error: exit 2, one line on stderr."""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["render", "model.json"],
            ["check", "model.json", "policy.json", "--user", "Alice", "--op", "read",
             "--object", "set:OBJECTS"],
            ["view", "model.json", "policy.json", "--user", "Alice"],
            ["apply", "model.json", "policy.json", "--user", "Alice",
             "--op", "addManVP", "New VP"],
            ["grant", "policy.json", "--objects", "vp:OS VP", "--op", "read",
             "--role", "Security Expert"],
            ["assign", "policy.json", "--user", "Bob", "--role", "Grid Node Expert"],
            ["view", "model.json", "policy.json", "--user", "Alice",
             "--dot", "view.dot"],
            ["init-example", "sub"],
        ],
        ids=["render", "check", "view", "apply", "grant", "assign", "view --dot",
             "init-example"],
    )
    def test_exits_two_without_traceback(self, example_dir, argv, unbuffered):
        before = self.files(example_dir)
        result = self.run_closed(example_dir, argv, unbuffered)
        assert result.returncode == 2
        assert result.stderr == "error: cannot write to standard output: Broken pipe\n"
        assert self.files(example_dir) == before  # no view.dot, no file in sub/

    # Unbuffered, argparse's own print swallows the error and --help exits 0.
    @pytest.mark.parametrize("argv", [["--help"], ["grant", "--help"]], ids=" ".join)
    def test_buffered_help_exits_two(self, tmp_path, argv):
        result = self.run_closed(tmp_path, argv, unbuffered=False)
        assert result.returncode == 2
        assert result.stderr == "error: cannot write to standard output: Broken pipe\n"

    @staticmethod
    def files(directory):
        return {
            path: path.read_bytes() for path in directory.rglob("*") if path.is_file()
        }

    @staticmethod
    def run_closed(directory, argv, unbuffered):
        """Run the CLI in ``directory`` with a stdout pipe that has no reader."""
        src = Path(ovmrbac.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the child's stdout fails
        try:
            return subprocess.run(
                [sys.executable, "-m", "ovmrbac.cli", *argv], cwd=directory,
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)


FIXTURE_ROLES = ("Grid Node Expert", "Image Expert", "Security Expert")
FIXTURE_USERS = ("Alice", "Bob", "Helen")

# SHA-256 of what the CLI writes and prints for the bundled fixture.
PINNED_DIGESTS = {
    "init-example model.json":
        "ded28c182b6aa467af6359310f26526626478a77f2824d5b72f6de15a91cfe75",
    "init-example policy.json":
        "f87dcdf5d0517172f3d74d50c4561ce5ff3d27ffec474ffba68dea0bc6f8005e",
    "render stdout":
        "0edb280c57e0cd8bc54ae6830761400e846d75f3d7ab85061a427c30059d980f",
    "validate stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "view --role Grid Node Expert --filter any stdout":
        "b5e8ec143cc48ecab56c21f18c962f75e6bb4ce44facd777c816698bb1197f41",
    "view --role Grid Node Expert --filter any dot":
        "0edb280c57e0cd8bc54ae6830761400e846d75f3d7ab85061a427c30059d980f",
    "view --role Grid Node Expert --filter read stdout":
        "8f7dd75dad46757110848726beea07a6c3f90fc11e3b8b0971c0e1c8c4fad9b5",
    "view --role Grid Node Expert --filter read dot":
        "0edb280c57e0cd8bc54ae6830761400e846d75f3d7ab85061a427c30059d980f",
    "view --role Image Expert --filter any stdout":
        "015e28634b779adb057cf379edbf8b10c93c237f8a2ea6c3218e0444fcf9eec6",
    "view --role Image Expert --filter any dot":
        "04327482d1baeb3c7fd6a72e8ff456a3d7edbb1fa74a3fa935002654fa98e62e",
    "view --role Image Expert --filter read stdout":
        "520cf15d1c782b391512822aca6cb5d4a831ed9e3af24c87608b20917a887e8d",
    "view --role Image Expert --filter read dot":
        "04327482d1baeb3c7fd6a72e8ff456a3d7edbb1fa74a3fa935002654fa98e62e",
    "view --role Security Expert --filter any stdout":
        "1a824ed6fa994acba60a276e033ef758ec4f5980d6e665a615fda8a167936bb2",
    "view --role Security Expert --filter any dot":
        "58a8fb9f2a2fe29ab8c8362ba2dfd073fd203769a2e92e5057d0a7158c379433",
    "view --role Security Expert --filter read stdout":
        "f7ac6b550a587162a48909051edff87d1cc6973bff3848ede8e82be8fa05ec9b",
    "view --role Security Expert --filter read dot":
        "58a8fb9f2a2fe29ab8c8362ba2dfd073fd203769a2e92e5057d0a7158c379433",
    "view --user Alice --filter any stdout":
        "9da5fc283659a5d6e720a489e4b6ec662b1ad79a680a0af81279f3c74adc8b69",
    "view --user Alice --filter any dot":
        "0edb280c57e0cd8bc54ae6830761400e846d75f3d7ab85061a427c30059d980f",
    "view --user Alice --filter read stdout":
        "ad390c3465580e72c6b87edeba7487bb47d80394d022a24b0773204def1a5def",
    "view --user Alice --filter read dot":
        "0edb280c57e0cd8bc54ae6830761400e846d75f3d7ab85061a427c30059d980f",
    "view --user Bob --filter any stdout":
        "c052109a35897ba9cec35fb7c2ac0b38a1366dda0c109b9245af1dec8c09bf6a",
    "view --user Bob --filter any dot":
        "58a8fb9f2a2fe29ab8c8362ba2dfd073fd203769a2e92e5057d0a7158c379433",
    "view --user Bob --filter read stdout":
        "77d14b189dadec799f05a25b72d3ad19bbd9668953ac3d97269adf3d8a935316",
    "view --user Bob --filter read dot":
        "58a8fb9f2a2fe29ab8c8362ba2dfd073fd203769a2e92e5057d0a7158c379433",
    "view --user Helen --filter any stdout":
        "4980630ab2ba89f9b4fd59661e222cfe4c2e8a12f9e463c34d7ce8c31dfd59c3",
    "view --user Helen --filter any dot":
        "04327482d1baeb3c7fd6a72e8ff456a3d7edbb1fa74a3fa935002654fa98e62e",
    "view --user Helen --filter read stdout":
        "7d518bf030850d625c3878d461edead58ae091f2476bf91e34bf3f23210576c3",
    "view --user Helen --filter read dot":
        "04327482d1baeb3c7fd6a72e8ff456a3d7edbb1fa74a3fa935002654fa98e62e",
}


def fixture_outputs(directory, capsys):
    """The bytes of every pinned output, keyed by a label naming the command."""
    outputs = {}
    assert main(["init-example", str(directory)]) == 0
    capsys.readouterr()
    model, policy = str(directory / "model.json"), str(directory / "policy.json")
    outputs["init-example model.json"] = (directory / "model.json").read_bytes()
    outputs["init-example policy.json"] = (directory / "policy.json").read_bytes()
    for command in ("render", "validate"):
        code, out, _ = run(capsys, command, model)
        assert code == 0
        outputs[f"{command} stdout"] = out.encode()
    subjects = [("--role", r) for r in FIXTURE_ROLES]
    subjects += [("--user", u) for u in FIXTURE_USERS]
    dot = directory / "view.dot"
    for flag, subject in subjects:
        for view_filter in ("any", "read"):
            label = f"view {flag} {subject} --filter {view_filter}"
            code, out, _ = run(
                capsys, "view", model, policy, flag, subject,
                "--filter", view_filter, "--dot", str(dot),
            )
            assert code == 0
            outputs[f"{label} stdout"] = out.encode()
            outputs[f"{label} dot"] = dot.read_bytes()
    return outputs


def test_fixture_outputs_are_pinned(tmp_path, capsys):
    digests = {
        label: hashlib.sha256(data).hexdigest()
        for label, data in fixture_outputs(tmp_path, capsys).items()
    }
    assert digests == PINNED_DIGESTS


# SHA-256 of the stdout and DOT of ``view --role R --filter op:<id> --dot``, for
# one operation each fixture role holds.
PINNED_OPERATION_VIEWS = {
    "Grid Node Expert": (
        "remove_Variation_Point",
        "af67e5ca0288d5f53bb95f41ed416b360096c8f0a9967d7ed3aba4f16cb6c892",
        "55405c7962d38075382ee751d037a139f531b2fdcafbd44e8007866b63777a36",
    ),
    "Image Expert": (
        "readOptDep",
        "1300b4e91844937d039c4f24496e7def503ca2e790ccb690df818fb9bf07b634",
        "c790ceee98568303bae49cbf11554da29605b8734e993a946be725d4d92d9d67",
    ),
    "Security Expert": (
        "writeAltGroup",
        "e52554bcd02caf7d08a0403f26cd9d308a7ab4d244e884ade52c745bffb48bf4",
        "58a8fb9f2a2fe29ab8c8362ba2dfd073fd203769a2e92e5057d0a7158c379433",
    ),
}


def test_exact_operation_views_are_pinned(example_dir, capsys):
    model, policy = str(example_dir / "model.json"), str(example_dir / "policy.json")
    dot = example_dir / "view.dot"
    digests = {}
    for role, (operation, _, _) in PINNED_OPERATION_VIEWS.items():
        code, out, _ = run(
            capsys, "view", model, policy, "--role", role,
            "--filter", f"op:{operation}", "--dot", str(dot),
        )
        assert code == 0
        digests[role] = (
            operation,
            hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(dot.read_bytes()).hexdigest(),
        )
    assert digests == PINNED_OPERATION_VIEWS


def test_a_view_lists_the_excludes_direction_it_holds(tmp_path, capsys):
    # the role holds only the vp -> variant direction of an excludes pair
    # added as variant -> vp, so its view must list that direction alone
    model = ovmrbac.add_variant(ovmrbac.add_man_vp(ovmrbac.new_empty_model(), "P"), "a")
    model = ovmrbac.add_constraint(
        model, ovmrbac.ConstraintKind.EXCLUDES,
        ovmrbac.EndpointRef(ovmrbac.Universe.VARIANT, "a"),
        ovmrbac.EndpointRef(ovmrbac.Universe.VP, "P"),
    )
    policy = ovmrbac.add_role(ovmrbac.new_empty_policy(), "R")
    policy = ovmrbac.grant_permission2(
        policy, [ovmrbac.ObjectId("set:EXCLUDES_VP_V")], "read", "R"
    )
    (tmp_path / "model.json").write_text(save_model(model))
    (tmp_path / "policy.json").write_text(save_policy(policy))
    dot = tmp_path / "view.dot"
    code, out, _ = run(
        capsys, "view", str(tmp_path / "model.json"), str(tmp_path / "policy.json"),
        "--role", "R", "--dot", str(dot),
    )
    assert code == 0
    view = json.loads(out)["view"]
    assert view["constraints"] == [{
        "kind": "excludes",
        "from": {"universe": "vp", "name": "P"},
        "to": {"universe": "variant", "name": "a"},
    }]
    assert list(view["provenance"]) == ["constraint:excludes:vp:P:variant:a", "variant:a"]
    edges = [line for line in dot.read_text().splitlines() if "->" in line]
    assert edges == ['  "vp:P" -> "variant:a" [style=dashed, dir=both, label="excludes"];']


# Grants the fixture policy lacks, so that every request op can apply:
# (objects, operation) for Grid Node Expert, each with the stdout of its
# grant and the SHA-256 of the policy.json it writes.
PINNED_GRANTS = (
    (("set:OPT_VP",), "add_Variation_Point",
     "granted add_Variation_Point on 1 object(s) to Grid Node Expert\n",
     "445e72a8eb1f40686d2366de6f1ceffb27fcb5736cb722b15c0a0a355f95159a"),
    (("set:VARIANT",), "add_Variant",
     "granted add_Variant on 1 object(s) to Grid Node Expert\n",
     "b918ebd6f55b45cc2e366fe75295bcd660928dee5df3d0825917f0dfb4149b6d"),
    (("set:VARIANT",), "remove_Variant",
     "granted remove_Variant on 1 object(s) to Grid Node Expert\n",
     "e8303240cdcb34764364ddd8521bf9e4a675b1b79ec34a250e3f49e11d18e527"),
    (("set:OPT", "set:MAN"), "writeOptDep",
     "granted writeOptDep on 2 object(s) to Grid Node Expert\n",
     "d64c7f59e01fcba21f513210169b1685ca618318cf9dbc7a6cc9bc2b9f7b464c"),
    (("set:ALTGROUP",), "add_AltGroup",
     "granted add_AltGroup on 1 object(s) to Grid Node Expert\n",
     "1b7f413cff436dd635f610bd7534695bf5332d22b969e7e081c437b0e7a3b76c"),
    (("set:ALTGROUP",), "remove_AltGroup",
     "granted remove_AltGroup on 1 object(s) to Grid Node Expert\n",
     "8da68f96b4376cd80822feb2d9386d86e041b956db3982029d8363ffdb37cdc4"),
    (("set:EXCLUDES_V_V",), "add_Constraint",
     "granted add_Constraint on 1 object(s) to Grid Node Expert\n",
     "f5bea45789f336abeabeda722956a34e9ea49a4a53f817e9d7ac53a389509c97"),
    (("set:EXCLUDES_V_V",), "remove_Constraint",
     "granted remove_Constraint on 1 object(s) to Grid Node Expert\n",
     "b2cbd508cab92248f6d8ca26acc0f387d29d45c19423c4c064032a79dc380e26"),
)
PINNED_ASSIGN = (
    "assigned Helen to Security Expert\n",
    "aaa224e4278d3df733f58c9e0b6074d8560f1e07a24d7f61fce637e836e2adac",
)

# (user, request words, exit code, stdout) of each apply, in order, on the
# fixture after the grants above: every request op, applied, denied and
# rejected.
PINNED_REQUESTS = (
    ("Alice", ("addManVP", "Fresh VP"), 0,
     "addManVP(Fresh VP) decision=allow outcome=applied\n"),
    ("Alice", ("addOptVP", "Spare VP"), 0,
     "addOptVP(Spare VP) decision=allow outcome=applied\n"),
    ("Alice", ("removeManVP", "Fresh VP"), 0,
     "removeManVP(Fresh VP) decision=allow outcome=applied\n"),
    ("Alice", ("removeManVP", "OS VP"), 3,
     "removeManVP(OS VP) decision=allow outcome=rejected: ElementInUse: "
     "variation point 'OS VP' is still referenced by: dependency Linux -> OS VP; "
     "dependency Sc.Linux -> OS VP; dependency Windows -> OS VP; "
     "constraint requires variant:OS -> vp:OS VP\n"),
    ("Alice", ("removeOptVP", "Spare VP"), 1,
     "removeOptVP(Spare VP) decision=deny outcome=denied\n"),
    ("Alice", ("addVariant", "Fresh"), 0,
     "addVariant(Fresh) decision=allow outcome=applied\n"),
    ("Helen", ("addVariant", "Other"), 1,
     "addVariant(Other) decision=deny outcome=denied\n"),
    ("Alice", ("removeVariant", "Kerberos"), 3,
     "removeVariant(Kerberos) decision=allow outcome=rejected: ElementInUse: "
     "variant 'Kerberos' is still referenced by: alternative group at "
     "Authentication VP\n"),
    ("Alice", ("addDependency", "Fresh", "Spare VP", "optional"), 0,
     "addDependency(Fresh, Spare VP, optional) decision=allow outcome=applied\n"),
    ("Alice", ("removeDependency", "Fresh", "Spare VP"), 0,
     "removeDependency(Fresh, Spare VP) decision=allow outcome=applied\n"),
    ("Bob", ("addAltGroup", "Linux VP", "1", "1", "x32", "x64"), 1,
     "addAltGroup({x32, x64}, 1, 1, Linux VP) decision=deny outcome=denied\n"),
    ("Alice", ("addAltGroup", "Spare VP", "1", "2", "x32", "Fresh"), 3,
     "addAltGroup({Fresh, x32}, 1, 2, Spare VP) decision=allow outcome=rejected: "
     "VariantAlreadyBound: variant 'x32' is already in the group at 'CPU VP'\n"),
    ("Alice", ("addVariant", "Other"), 0,
     "addVariant(Other) decision=allow outcome=applied\n"),
    ("Alice", ("addAltGroup", "Spare VP", "1", "1", "Fresh", "Other"), 0,
     "addAltGroup({Fresh, Other}, 1, 1, Spare VP) decision=allow outcome=applied\n"),
    ("Bob", ("removeAltGroup", "Spare VP"), 1,
     "removeAltGroup(Spare VP) decision=deny outcome=denied\n"),
    ("Alice", ("removeAltGroup", "Spare VP"), 0,
     "removeAltGroup(Spare VP) decision=allow outcome=applied\n"),
    ("Alice", ("removeVariant", "Fresh"), 0,
     "removeVariant(Fresh) decision=allow outcome=applied\n"),
    ("Alice", ("addConstraint", "excludes", "variant:Windows", "variant:Kerberos"), 0,
     "addConstraint(excludes, variant:Windows, variant:Kerberos) "
     "decision=allow outcome=applied\n"),
    ("Alice", ("addConstraint", "requires", "variant:Windows", "variant:Kerberos"), 1,
     "addConstraint(requires, variant:Windows, variant:Kerberos) "
     "decision=deny outcome=denied\n"),
    ("Alice", ("removeConstraint", "excludes", "variant:Kerberos", "variant:Windows"), 0,
     "removeConstraint(excludes, variant:Kerberos, variant:Windows) "
     "decision=allow outcome=applied\n"),
    ("Alice", ("removeConstraint", "requires", "variant:CPU", "vp:CPU VP"), 1,
     "removeConstraint(requires, variant:CPU, vp:CPU VP) "
     "decision=deny outcome=denied\n"),
)
PINNED_FINAL_MODEL = "a6b116fbe6468e7644a7870a3668fcd7fa0d3691d9fa86ef5fdfb46581a9e983"


def test_fixture_edits_are_pinned(example_dir, capsys):
    model, policy = str(example_dir / "model.json"), str(example_dir / "policy.json")

    def digest(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    for objects, op, out, policy_digest in PINNED_GRANTS:
        assert run(
            capsys, "grant", policy, "--objects", *objects, "--op", op,
            "--role", "Grid Node Expert",
        ) == (0, out, "")
        assert digest(policy) == policy_digest, op
    assert run(capsys, "assign", policy, "--user", "Helen", "--role", "Security Expert") \
        == (0, PINNED_ASSIGN[0], "")
    assert digest(policy) == PINNED_ASSIGN[1]
    for user, words, code, out in PINNED_REQUESTS:
        before = digest(model)
        assert run(
            capsys, "apply", model, policy, "--user", user, "--op", *words
        ) == (code, out, ""), words
        assert (digest(model) == before) == (code != 0)  # only an applied edit writes
    assert {words[0] for _, words, _, _ in PINNED_REQUESTS} == set(OPERATIONS)
    assert digest(model) == PINNED_FINAL_MODEL


# --- property: every command line ends in a bounded outcome -----------------

_FIXTURE_DOCUMENTS = {
    "model.json": save_model(build_example_model()),
    "policy.json": save_policy(build_example_policy()),
}
_DOCUMENTS = ("MODEL", "POLICY", "MISSING", "DIR")
_USERS = (*FIXTURE_USERS, *FIXTURE_USERS, "Mallory", " ")  # mostly known
_ROLES = (*FIXTURE_ROLES, "Nobody", "")
_RBAC_OPS = (*OPERATION_CATALOG, "noSuchOp")
_OBJECTS = (
    "set:OBJECTS", "set:MAN_VP", "set:VARIANT", "set:NOPE", "vp:OS VP",
    "vp:Nowhere", "variant:Linux", "dep:Linux->OS VP", "altgroup:CPU VP",
    "constraint:excludes:variant:Matlab:variant:Sc.Linux", "garbage", "",
)
_NAMES = (
    "OS VP", "CPU VP", "Authentication VP", "Linux", "Windows", "x32", "x64",
    "Kerberos", "Password", "New", " New", "a:b", "",
)
# command-line words for each argument kind, by its usage label
_WORDS = {
    "NAME": _NAMES,
    "INT": ("0", "1", "2", "-1", "x"),
    "mandatory|optional": ("mandatory", "optional", "requires"),
    "requires|excludes": ("requires", "excludes", "optional"),
    "variant:NAME|vp:NAME": (
        "variant:Linux", "variant:x32", "vp:OS VP", "vp:New", "variant:", "nope:x",
    ),
}
_ARGS = tuple(word for words in _WORDS.values() for word in words)
_FILTERS = ("any", "read", "op:read", "op:writeAltGroup", "op:", "bogus")
_TOKENS = (*_DOCUMENTS, *_USERS, *_ROLES, *_RBAC_OPS, *_OBJECTS, *_ARGS, "--op")


@st.composite
def cli_argv(draw):
    """A command line drawn from the CLI's vocabulary, sometimes malformed.

    Upper-case placeholders stand for paths in the run's directory.
    """
    def pick(values):
        return draw(st.sampled_from(values))

    def document(expected):  # mostly the document the command expects
        return pick((expected,) * 8 + _DOCUMENTS)

    command = pick(
        ("init-example", "validate", "render", "apply", "grant", "assign",
         "check", "view")
    )
    if command == "init-example":
        argv = [command, pick(("DIR", "DIR/sub"))] + pick(([], ["--explain"]))
    elif command in ("validate", "render"):
        argv = [command, document("MODEL")]
    elif command == "apply":
        op = pick((*OPERATIONS, "noSuchOp"))
        if op == "addAltGroup":
            members = draw(st.lists(st.sampled_from(_NAMES), max_size=3))
            args = [pick(_NAMES), pick(_WORDS["INT"]), pick(_WORDS["INT"]), *members]
        elif op in OPERATIONS and pick(("by kind", "by kind", "any")) == "by kind":
            args = [pick(_WORDS[kind.label]) for kind in OPERATIONS[op].params]
        else:
            args = draw(st.lists(st.sampled_from(_ARGS), max_size=4))
        argv = [command, document("MODEL"), document("POLICY"), "--user",
                pick(_USERS), "--op", op, *args]
    elif command == "grant":
        objects = draw(st.lists(st.sampled_from(_OBJECTS), min_size=1, max_size=3))
        argv = [command, document("POLICY"), "--objects", *objects,
                "--op", pick(_RBAC_OPS), "--role", pick(_ROLES)]
    elif command == "assign":
        argv = [command, document("POLICY"), "--user", pick(_USERS),
                "--role", pick(_ROLES)]
    elif command == "check":
        argv = [command, document("MODEL"), document("POLICY"), "--user",
                pick(_USERS), "--op", pick(_RBAC_OPS), "--object", pick(_OBJECTS)]
    else:
        subject = pick((["--role", pick(_ROLES)], ["--user", pick(_USERS)]))
        argv = [command, document("MODEL"), document("POLICY"), *subject,
                *pick(([], ["--filter", pick(_FILTERS)])),
                *pick(([], ["--dot", pick(("DOT", "DIR"))]))]
    change = pick(("none", "none", "none", "drop", "insert"))
    if change == "drop":  # a word after the command goes missing
        del argv[draw(st.integers(1, len(argv) - 1))]
    elif change == "insert":
        argv.insert(draw(st.integers(0, len(argv))), pick(_TOKENS))
    return argv


def _explains_exit_one(command, out, err):
    """Exit 1 means a Deny, violations found, or a role without permissions."""
    return (
        (command == "check" and out == "Deny\n")
        or (command == "apply" and out.endswith(" decision=deny outcome=denied\n"))
        or (command == "validate" and out != "")
        or (command == "view" and err.endswith("has no permissions assigned\n"))
    )


def _main_outcome(argv):
    """main's return code, or None when argparse refuses the command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            code = None
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.lists(cli_argv(), min_size=1, max_size=3))
def test_every_command_line_ends_in_a_bounded_outcome(commands):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for name, text in _FIXTURE_DOCUMENTS.items():
            (directory / name).write_text(text, encoding="utf-8")
        paths = {
            "MODEL": directory / "model.json",
            "POLICY": directory / "policy.json",
            "MISSING": directory / "missing.json",
            "DIR": directory,
            "DIR/sub": directory / "sub",
            "DOT": directory / "view.dot",
        }
        cwd = os.getcwd()
        os.chdir(tmp)  # a stray positional path lands in the run's directory
        try:
            for argv in commands:
                argv = [str(paths.get(token, token)) for token in argv]
                before = [paths[key].read_bytes() for key in ("MODEL", "POLICY")]
                code, out, err = _main_outcome(argv)
                assert code in (None, 0, 1, 2, 3), argv
                if code == 1:
                    assert _explains_exit_one(argv[0], out, err), (argv, out, err)
                if code != 0:
                    after = [paths[key].read_bytes() for key in ("MODEL", "POLICY")]
                    assert after == before, argv
        finally:
            os.chdir(cwd)
