"""A catalogue of one-place faults in ``src/`` and a runner that checks that
the tests kill every one of them.

Each mutant replaces one exact text of one module, found there exactly once,
by another, and says what the fault means. The runner copies ``src/`` and
``tests/`` into a temporary directory, so nothing is written into the
checkout. It runs the tests on the unmutated copy first, then once per
mutant, and fails when the unmutated copy fails, when an old text is not
found exactly once, when a new text equals its old text, when a mutated
module does not compile, when two mutants make the same change, when a test
module is missing from its order, or when a mutant survives. A mutant is
killed only by a failing test; a mutant that cannot be imported or
collected is an error of the catalogue, not a kill.

Runs are deterministic: ``PYTHONHASHSEED=1``, a fixed hypothesis seed, no
cache and no bytecode written, and ``-x`` over the test modules in a fixed
order, the fast killers first.

    python tests/mutants.py            # run every mutant
    python tests/mutants.py --check    # only check the catalogue and the order

The check needs no test run, so it takes seconds on every Python version.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/ovmrbac"

# Every test module, the fast killers first; -x stops at the first failing
# test. The runner refuses to start when a test module is missing here.
TEST_ORDER = (
    "tests/test_records.py",
    "tests/test_rbac.py",
    "tests/test_session.py",
    "tests/test_oracle.py",
    "tests/test_operations.py",
    "tests/test_model.py",
    "tests/test_model_io.py",
    "tests/test_validate.py",
    "tests/test_cli.py",
    "tests/test_acceptance.py",
    "tests/test_properties.py",
)


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/ovmrbac
    old: str
    new: str
    fault: str


MUTANTS = (
    # --- the access decision -------------------------------------------------
    Mutant(
        "no-creation-rule", "rbac.py",
        "if operation in _CREATION_OPERATIONS and obj._category in grants:",
        "if False:",
        "a category grant never covers an element that a creation operation "
        "names and that does not exist yet",
    ),
    Mutant(
        "creation-rule-for-every-operation", "rbac.py",
        "operation in _CREATION_OPERATIONS and obj._category in grants",
        "obj._category in grants",
        "the category an id spells covers it under every operation, so a "
        "grant covers elements that do not exist",
    ),
    Mutant(
        "objects-skips-category-ids", "rbac.py",
        "if Category.OBJECTS in grants or (obj.category or obj.text) in grants:",
        "if Category.OBJECTS in grants and not obj.is_category"
        " or (obj.category or obj.text) in grants:",
        "a grant on set:OBJECTS does not cover a category id",
    ),
    Mutant(
        "no-exact-category-match", "rbac.py",
        "if Category.OBJECTS in grants or (obj.category or obj.text) in grants:",
        "if Category.OBJECTS in grants or obj.text in grants:",
        "a grant on a category id does not cover that same id",
    ),
    Mutant(
        "first-role-only", "rbac.py",
        "grants = keyed_grants(_grants(index, index.roles.get(user, ())), (operation,))",
        "grants = keyed_grants(\n"
        "            _grants(index, sorted(index.roles.get(user, ()))[:1]), (operation,)\n"
        "        )",
        "a decision reads the grants of the user's first role alone",
    ),
    # --- the policy index -------------------------------------------------------
    Mutant(
        "policy-index-never-rebuilt", "rbac.py",
        "return _kept(_last_policy, policy, _PolicyIndex)",
        "return _kept(_last_policy, _last_policy[0] or policy, _PolicyIndex)",
        "decisions and views of every policy read the first policy's index",
    ),
    Mutant(
        "policy-index-not-taken-over", "rbac.py",
        "return _kept(_last_policy, policy, _PolicyIndex)",
        "return _kept(_last_policy, _last_policy[0] if _last_policy[0] == policy"
        " else policy, _PolicyIndex)",
        "the first of equal policies stays the key, so later ones compare "
        "every assignment",
    ),
    Mutant(
        "policy-index-ignores-operation", "rbac.py",
        "index, key = _policy_index(policy), (user, operation)",
        "index, key = _policy_index(policy), user",
        "a decision reads the grants its user was first checked for, on "
        "whatever operation that was",
    ),
    # --- the grant rule that decisions and views share -------------------------
    Mutant(
        "grants-of-any-operation", "rbac.py",
        "if operations is None or perm.operation in operations:",
        "if True:",
        "a grant on one operation covers every operation, in decisions and "
        "in views",
    ),
    Mutant(
        "category-grants-keyed-by-text", "rbac.py",
        "keyed.setdefault(perm.object.category or perm.object.text, set()).add(perm)",
        "keyed.setdefault(perm.object.text, set()).add(perm)",
        "a category grant is keyed by its id text, so it covers no member of "
        "its category",
    ),
    # --- views ---------------------------------------------------------------
    Mutant(
        "views-ignore-objects", "rbac.py",
        "everywhere = granted.get(Category.OBJECTS, frozenset())",
        "everywhere = frozenset()",
        "a view ignores grants on set:OBJECTS",
    ),
    Mutant(
        "provenance-overwritten", "rbac.py",
        "provenance[text] = unions.get(pair) or unions.setdefault(pair, held | perms)",
        "provenance[text] = perms",
        "a carried variant keeps the grants of its last relation instead of "
        "the union",
    ),
    Mutant(
        "visible-vps-as-stubs", "rbac.py",
        'vp_stubs=frozenset(referenced_vps - {p.name for p in shown["variation_points"]}),',
        "vp_stubs=frozenset(referenced_vps),",
        "a variation point shown in full is also listed as a stub",
    ),
    Mutant(
        "user-view-ignores-filter", "session.py",
        "return build_view(user_permissions(policy, user), model, op_filter.operations)",
        "return build_view(user_permissions(policy, user), model, ANY_OPERATION.operations)",
        "a user's view keeps the grants of every operation",
    ),
    Mutant(
        "constraints-carry-no-variants", "rbac.py",
        "named = {n for n, _ in references(alone, Universe.VARIANT)}",
        "named = {\n"
        "                n for n, r in references(alone, Universe.VARIANT)\n"
        "                if not isinstance(r, Constraint)\n"
        "            }",
        "a visible constraint does not carry its variant endpoints",
    ),
    Mutant(
        "constraints-name-no-stubs", "rbac.py",
        "{n for n, _ in references(alone, Universe.VP)},",
        "{n for n, r in references(alone, Universe.VP) if not isinstance(r, Constraint)},",
        "a visible constraint's hidden variation-point endpoint is no stub",
    ),
    Mutant(
        "bulk-admit-drops-exact-grants", "rbac.py",
        "if key in index.elements:",
        "if key in index.elements and key not in provenance:",
        "an element loses its exact-id grants when its category is also "
        "admitted",
    ),
    Mutant(
        "carry-takes-category-set", "rbac.py",
        "carried.append((part, provenance[key]))",
        "carried.append((part, provenance[key] - perms))",
        "a variant carried by an exact-id relation takes the admitting set of "
        "the relation's category instead of the relation's full provenance",
    ),
    Mutant(
        "provenance-writable", "rbac.py",
        "provenance=MappingProxyType(provenance),",
        "provenance=provenance,",
        "a view's provenance can be changed after it is built, so it can "
        "drift from an equal view and from its own hash",
    ),
    # --- the keep rule of the view and policy indexes ---------------------------
    Mutant(
        "index-never-rebuilt", "rbac.py",
        "if last != key:",
        "if last is None:",
        "views of every snapshot read the first snapshot's index, and "
        "decisions the first policy's",
    ),
    Mutant(
        "index-matched-by-identity", "rbac.py",
        "if last != key:",
        "if last is not key:",
        "an equal snapshot or policy rebuilds the index instead of sharing it",
    ),
    Mutant(
        "index-not-taken-over", "rbac.py",
        "cache[:] = key, index",
        "cache[:] = (last if last == key else key), index",
        "the first of equal snapshots or policies stays the key, so later "
        "ones compare every element or assignment",
    ),
    # --- names -----------------------------------------------------------------
    Mutant(
        "names-allow-surrogates", "model.py",
        'if not name.isascii() and any("\\ud800" <= c <= "\\udfff" for c in name):',
        "if False:",
        "an element name that UTF-8 cannot encode is accepted, and fails only "
        "when a document or DOT text is written",
    ),
    Mutant(
        "ids-allow-surrogates", "rbac.py",
        'if not value.isascii() and any("\\ud800" <= c <= "\\udfff" for c in value):',
        "if False:",
        "a user, role or operation id that UTF-8 cannot encode is accepted",
    ),
    # --- the command line's I/O order ------------------------------------------
    Mutant(
        "print-before-staging", "cli.py",
        "        for path, text in reply.writes:  # all staged before any output\n"
        "            staged.append(_stage(path, text))\n"
        "        sys.stdout.write(reply.out)\n",
        "        sys.stdout.write(reply.out)\n"
        "        for path, text in reply.writes:  # all staged before any output\n"
        "            staged.append(_stage(path, text))\n",
        "a command prints its output before its files are staged, so a failed "
        "write exits 2 after printing",
    ),
    Mutant(
        "rename-before-printing", "cli.py",
        "            staged.append(_stage(path, text))\n",
        "            os.replace(*_stage(path, text))\n",
        "each file is replaced as soon as it is staged, before the output is "
        "out, so a closed stdout leaves it replaced",
    ),
    Mutant(
        "no-flush-before-renames", "cli.py",
        "        sys.stdout.write(reply.out)\n"
        "        sys.stdout.flush()\n",
        "        sys.stdout.write(reply.out)\n",
        "buffered output is written only at exit, after the files are replaced",
    ),
    Mutant(
        "staged-temps-left", "cli.py",
        "        for temp, _ in staged:  # a renamed file is gone from here already\n"
        "            temp.unlink(missing_ok=True)\n",
        "        for temp, _ in staged:  # a renamed file is gone from here already\n"
        "            pass\n",
        "a command that fails after staging leaves its staged files behind",
    ),
    Mutant(
        "partial-temp-left", "cli.py",
        "        except BaseException:\n"
        "            temp.unlink(missing_ok=True)\n"
        "            raise\n",
        "        except BaseException:\n"
        "            raise\n",
        "a write that fails partway leaves its partial file behind",
    ),
    Mutant(
        "no-permissions-exits-one", "cli.py",
        "        return _fail(str(exc))\n",
        "        _fail(str(exc))\n"
        "        return EXIT_DENIED if 'no permissions' in str(exc) else EXIT_USAGE\n",
        "a view of a role with no permissions exits 1, as a Deny does",
    ),
    Mutant(
        "output-encoding-unchecked", "cli.py",
        "        _printable(reply.out)\n",
        "",
        "output that stdout's encoding refuses fails after the files are "
        "staged, with a traceback",
    ),
    Mutant(
        "init-example-dir-before-check", "cli.py",
        "    _printable(out)  # before the directory is made\n",
        "",
        "init-example makes its directory before its output is known to print",
    ),
    # --- field types -------------------------------------------------------------
    Mutant(
        "check-type-checks-nothing", "model.py",
        "    if not isinstance(value, cls):\n"
        '        raise ValueError(f"expected a {cls.__name__}, got {value!r}")\n',
        "",
        "no value or request argument is checked for its type, so a wrong-typed "
        "field fails later, far from the call",
    ),
    Mutant(
        "constraint-fields-unchecked", "model.py",
        "        kind, source = check_type(kind, ConstraintKind), check_type(source, EndpointRef)\n"
        "        return tuple.__new__(cls, (kind, source, check_type(target, EndpointRef)))\n",
        "        return tuple.__new__(cls, (kind, source, target))\n",
        "a constraint keeps a kind or an endpoint of the wrong type, and the "
        "model holding it cannot be written",
    ),
    Mutant(
        "permission-object-unchecked", "rbac.py",
        "return tuple.__new__(cls, (check_type(object, ObjectId), operation))",
        "return tuple.__new__(cls, (object, operation))",
        "a permission keeps an object id given as text, and every later "
        "decision, view or save of its policy fails",
    ),
    # --- records -----------------------------------------------------------------
    Mutant(
        "record-eq-ignores-type", "model.py",
        "        return type(other) is type(self) and tuple.__eq__(self, other)\n",
        "        return isinstance(other, tuple) and tuple.__eq__(self, other)\n",
        "a record equals a bare tuple, or a record of another type, with the "
        "same values",
    ),
    Mutant(
        "replace-keeps-old-field", "model.py",
        "        values = list(map(changes.pop, self._fields, self))  # before the rest\n"
        "        return type(self)(*values, **changes)\n",
        "        values = [changes.pop(n, None) or v for n, v in zip(self._fields, self)]\n"
        "        return type(self)(*values, **changes)\n",
        "_replace keeps the old value of a field changed to an empty or false "
        "one, so removing the last element of a component changes nothing",
    ),
    # --- edits and documents ---------------------------------------------------
    Mutant(
        "document-keys-unsorted", "model_io.py",
        "return json.dumps(document, indent=2, sort_keys=True)",
        "return json.dumps(document, indent=2, sort_keys=False)",
        "documents list their keys in the order they were built, not sorted",
    ),
    Mutant(
        "escape-checks-quotes-only", "model_io.py",
        '''if '"' not in text and "\\\\" not in text:''',
        '''if '"' not in text:''',
        "DOT text leaves a backslash unescaped in a name without a quote",
    ),
    Mutant(
        "remove-keeps-mirror", "model.py",
        "constraints=model.constraints.difference(wanted.closure())",
        "constraints=model.constraints - {wanted}",
        "removing an excludes constraint keeps its mirror",
    ),
    Mutant(
        "execute-ignores-deny", "session.py",
        "if decision is Decision.DENY:",
        "if False:",
        "a denied request is applied",
    ),
    Mutant(
        "stored-lists-unheld-direction", "model.py",
        "        held[key] for key in sorted(held)\n",
        "        min(held[key].closure(), key=Constraint.sort_key) for key in sorted(held)\n",
        "a model holding one direction of an excludes pair lists the least "
        "direction, held or not",
    ),
)


def mutated(source: str, mutant: Mutant) -> str:
    """The module text with the mutant applied; raise if the old text is not
    found exactly once."""
    count = source.count(mutant.old)
    if count != 1:
        raise LookupError(
            f"{mutant.name}: old text found {count} times in {mutant.module}"
        )
    return source.replace(mutant.old, mutant.new)


def check_texts(root: Path, mutants: tuple[Mutant, ...]) -> list[str]:
    """One error line per mutant whose new text is its old text, whose old
    text is not found exactly once, or whose mutated module does not compile."""
    errors = []
    for mutant in mutants:
        if mutant.new == mutant.old:
            errors.append(f"{mutant.name}: the new text is the old text")
            continue
        try:
            text = mutated((root / PACKAGE / mutant.module).read_text(), mutant)
            compile(text, mutant.module, "exec", dont_inherit=True)
        except LookupError as exc:
            errors.append(str(exc))
        except SyntaxError as exc:
            errors.append(f"{mutant.name}: the mutated {mutant.module} does not compile: {exc}")
    return errors


def repeated_changes(mutants: tuple[Mutant, ...]) -> list[str]:
    """One error line per mutant with the module, old text and new text of an
    earlier one."""
    first: dict[tuple[str, str, str], str] = {}
    errors = []
    for mutant in mutants:
        change = mutant.module, mutant.old, mutant.new
        if change in first:
            errors.append(f"{mutant.name}: the same change as {first[change]}")
        first.setdefault(change, mutant.name)
    return errors


def run_tests(copy: Path) -> tuple[int, str | None, str]:
    """Run the ordered test modules in ``copy``; return the exit code, the
    first failing test, if any, and the end of pytest's output."""
    env = dict(
        os.environ,
        PYTHONHASHSEED="1",
        PYTHONPATH=str(copy / "src"),
        PYTHONDONTWRITEBYTECODE="1",
    )
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", *TEST_ORDER,
    ]
    result = subprocess.run(
        command, cwd=copy, env=env, capture_output=True, text=True, timeout=1800
    )
    failed = [line[len("FAILED "):] for line in result.stdout.splitlines()
              if line.startswith("FAILED ")]
    output = (result.stdout + result.stderr)[-3000:]
    return result.returncode, failed[0] if failed else None, output


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true", help="only check the catalogue and the test order"
    )
    args = parser.parse_args(argv)

    errors = check_texts(ROOT, MUTANTS)
    print(f"{len(MUTANTS) - len(errors)} of {len(MUTANTS)} mutants apply once and compile")
    errors += repeated_changes(MUTANTS)
    modules = {str(p.relative_to(ROOT)) for p in ROOT.glob("tests/test_*.py")}
    if modules != set(TEST_ORDER):
        errors.append(f"TEST_ORDER misses or names too many: {sorted(modules ^ set(TEST_ORDER))}")
    for error in errors:
        print(error)
    if errors or args.check:
        return 1 if errors else 0

    with tempfile.TemporaryDirectory(prefix="ovmrbac-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")

        start = time.perf_counter()
        code, _, output = run_tests(copy)
        if code != 0:
            print(f"the unmutated copy fails (exit {code}):\n{output}")
            return 1
        print(f"unmutated: passed ({time.perf_counter() - start:.0f}s)", flush=True)

        survivors = []
        for mutant in MUTANTS:
            path = copy / PACKAGE / mutant.module
            source = path.read_text()
            path.write_text(mutated(source, mutant))
            start = time.perf_counter()
            try:
                code, failed, output = run_tests(copy)
            finally:
                path.write_text(source)
            took = f"{time.perf_counter() - start:.0f}s"
            if code == 1 and failed:
                print(f"killed   {mutant.name} ({took}) by {failed}", flush=True)
            else:
                survivors.append(mutant.name)
                print(f"SURVIVED {mutant.name} ({took}, exit {code}): {mutant.fault}")
                if code != 0:
                    print(output)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
