"""A catalogue of one-place faults in ``src/`` and a runner that checks that
the tests kill every one of them.

Each mutant replaces one exact text of one module, found there exactly once,
by another, and says what the fault means. The runner copies ``src/`` and
``tests/`` into a temporary directory, so nothing is written into the
checkout. It runs the tests on the unmutated copy first, then once per
mutant, and fails when the unmutated copy fails, when an old text is not
found exactly once, when a test module is missing from its order, or when
a mutant survives. A mutant is killed only by a failing test; a mutant that
cannot be imported or collected is an error of the catalogue, not a kill.

Runs are deterministic: ``PYTHONHASHSEED=1``, a fixed hypothesis seed, no
cache and no bytecode written, and ``-x`` over the test modules in a fixed
order, the fast killers first.

    python tests/mutants.py            # run every mutant
    python tests/mutants.py --check    # only check the texts and the order

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
        "grants = keyed_grants(_grants(policy, _roles(policy, user)), (operation,))",
        "grants = keyed_grants(\n"
        "        _grants(policy, sorted(_roles(policy, user))[:1]), (operation,)\n"
        "    )",
        "a decision reads the grants of the user's first role alone",
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
        "views-ignore-objects", "session.py",
        "everywhere = granted.get(Category.OBJECTS, frozenset())",
        "everywhere = frozenset()",
        "a view ignores grants on set:OBJECTS",
    ),
    Mutant(
        "provenance-overwritten", "session.py",
        "provenance[text] = unions.get(pair) or unions.setdefault(pair, held | perms)",
        "provenance[text] = perms",
        "a carried variant keeps the grants of its last relation instead of "
        "the union",
    ),
    Mutant(
        "visible-vps-as-stubs", "session.py",
        'vp_stubs=frozenset(referenced_vps - {p.name for p in shown["variation_points"]}),',
        "vp_stubs=frozenset(referenced_vps),",
        "a variation point shown in full is also listed as a stub",
    ),
    Mutant(
        "user-view-ignores-filter", "session.py",
        "return _build_view(user_permissions(policy, user), model, op_filter)",
        "return _build_view(user_permissions(policy, user), model, ANY_OPERATION)",
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
        "bulk-admit-drops-exact-grants", "session.py",
        "if key in index.elements:",
        "if key in index.elements and key not in provenance:",
        "an element loses its exact-id grants when its category is also "
        "admitted",
    ),
    Mutant(
        "carry-takes-category-set", "session.py",
        "carried.append((part, provenance[key]))",
        "carried.append((part, provenance[key] - perms))",
        "a variant carried by an exact-id relation takes the admitting set of "
        "the relation's category instead of the relation's full provenance",
    ),
    Mutant(
        "provenance-writable", "session.py",
        "provenance=MappingProxyType(provenance),",
        "provenance=provenance,",
        "a view's provenance can be changed after it is built, so it can "
        "drift from an equal view and from its own hash",
    ),
    # --- the view index --------------------------------------------------------
    Mutant(
        "index-never-rebuilt", "rbac.py",
        "if last != model:",
        "if last is None:",
        "views of every snapshot read the first snapshot's index",
    ),
    Mutant(
        "index-matched-by-identity", "rbac.py",
        "if last != model:",
        "if last is not model:",
        "an equal snapshot rebuilds the index instead of sharing it",
    ),
    Mutant(
        "index-not-taken-over", "rbac.py",
        "_last_index[:] = model, index",
        "_last_index[:] = (last if last == model else model), index",
        "the first of equal snapshots stays the key, so later ones compare "
        "every element",
    ),
    # --- edits and documents ---------------------------------------------------
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
    """One error line per mutant whose old text is not found exactly once."""
    errors = []
    for mutant in mutants:
        try:
            mutated((root / PACKAGE / mutant.module).read_text(), mutant)
        except LookupError as exc:
            errors.append(str(exc))
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
        "--check", action="store_true", help="only check that each old text occurs once"
    )
    args = parser.parse_args(argv)

    errors = check_texts(ROOT, MUTANTS)
    print(f"{len(MUTANTS) - len(errors)} of {len(MUTANTS)} old texts found once")
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
