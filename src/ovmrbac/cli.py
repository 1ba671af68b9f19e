"""Command-line front end: validate, apply, grant, assign, check, view, render.

Exit codes: 0 success (or Allow), 1 Deny / violations found / empty view,
2 usage, parse, or I/O error, 3 operation rejected by a model precondition.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from pathlib import Path

from . import fixture, model_io, rbac
from .errors import NoPermissions, OvmRbacError, ParseError
from .model import validate_model
from .rbac import Decision, ObjectId, check_access, role_permissions, user_permissions
from .session import (
    ANY_OPERATION,
    NAMES,
    OPERATIONS,
    OperationFilter,
    OpRequest,
    OutcomeStatus,
    READ_LIKE,
    Session,
    ViewModel,
    derive_view,
    exact_operation,
    execute,
    user_view,
)

EXIT_OK = 0
EXIT_DENIED = 1
EXIT_USAGE = 2
EXIT_REJECTED = 3


def _fail(message: str, code: int = EXIT_USAGE) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc.reason}") from None


def _write(path: str | Path, text: str) -> None:
    """Replace the file at ``path`` with ``text`` in one step.

    The text goes to a fresh file in the same directory, which then replaces
    the target, so a crash never leaves a truncated document behind. An
    existing target keeps its permission bits; a new one gets the umask
    default, as with a plain open.
    """
    target = Path(os.path.realpath(path))
    temp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    try:
        try:
            mode = stat.S_IMODE(target.stat().st_mode)
        except FileNotFoundError:
            mode = None
        # created no wider than the target's mode, then set to exactly it
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
        fd = os.open(temp, flags, 0o666 if mode is None else mode)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as out:
                out.write(text)
            if mode is not None:
                os.chmod(temp, mode)
            os.replace(temp, target)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise OvmRbacError(f"cannot write {path}: {exc.strerror}") from None


def request_from_args(op: str, raw: list[str]) -> OpRequest:
    """Build a request from command-line strings, validating arity."""
    spec = OPERATIONS.get(op)
    if spec is None:
        raise ValueError(f"unknown operation {op!r}")
    if op == "addAltGroup":  # the variant list goes last on the command line
        if len(raw) < 5:
            raise ValueError(f"--op {op} expects VP MIN MAX {NAMES.label}")
        raw = [raw[3:], raw[1], raw[2], raw[0]]
    elif len(raw) != len(spec.params):
        usage = " ".join(kind.label for kind in spec.params)
        raise ValueError(f"--op {op} expects {usage}")
    args = []
    for kind, text in zip(spec.params, raw):
        try:
            args.append(kind.parse(text))
        except ValueError:
            raise ValueError(f"expected {kind.label}, got {text!r}") from None
    return OpRequest(op, tuple(args))


def _parse_filter(text: str) -> OperationFilter:
    if text == "any":
        return ANY_OPERATION
    if text == "read":
        return READ_LIKE
    if text.startswith("op:"):
        return exact_operation(text[3:])
    raise ValueError(f"filter must be any, read, or op:<id>, got {text!r}")


def _permission_rows(permissions) -> list[dict]:
    return [
        {"object": p.object.text, "operation": p.operation}
        for p in sorted(permissions, key=rbac.Permission.sort_key)
    ]


def _view_document(view: ViewModel) -> dict:
    doc = model_io.model_to_document(view)
    doc["vp_stubs"] = sorted(view.vp_stubs)
    doc["provenance"] = {
        element: _permission_rows(perms)
        for element, perms in sorted(view.provenance.items())
    }
    return doc


def cmd_init_example(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail(f"cannot write to {out_dir}: {exc.strerror}")
    _write(out_dir / "model.json", model_io.save_model(fixture.build_example_model()))
    _write(
        out_dir / "policy.json", model_io.save_policy(fixture.build_example_policy())
    )
    if args.explain:
        print(fixture.explain_normalization(), end="")
    print(f"wrote {out_dir / 'model.json'} and {out_dir / 'policy.json'}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    model = model_io.load_model(_read(args.model))
    violations = validate_model(model)
    for violation in violations:
        print(violation)
    return EXIT_OK if not violations else EXIT_DENIED


def cmd_apply(args: argparse.Namespace) -> int:
    model = model_io.load_model(_read(args.model))
    policy = model_io.load_policy(_read(args.policy))
    try:
        request = request_from_args(args.op[0], args.op[1:])
    except ValueError as exc:
        return _fail(str(exc))
    session = Session(user=args.user, model=model, policy=policy)
    outcome = execute(session, request)
    print(session.log[-1].render())
    if outcome.status is OutcomeStatus.DENIED:
        return EXIT_DENIED
    if outcome.status is OutcomeStatus.REJECTED:
        return EXIT_REJECTED
    _write(args.model, model_io.save_model(session.model))
    return EXIT_OK


def cmd_grant(args: argparse.Namespace) -> int:
    policy = model_io.load_policy(_read(args.policy))
    objects = [ObjectId(text) for text in args.objects]
    policy = rbac.grant_permission2(policy, objects, args.op, args.role)
    _write(args.policy, model_io.save_policy(policy))
    print(f"granted {args.op} on {len(args.objects)} object(s) to {args.role}")
    return EXIT_OK


def cmd_assign(args: argparse.Namespace) -> int:
    policy = model_io.load_policy(_read(args.policy))
    policy = rbac.assign_user(policy, args.user, args.role)
    _write(args.policy, model_io.save_policy(policy))
    print(f"assigned {args.user} to {args.role}")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    model = model_io.load_model(_read(args.model))
    policy = model_io.load_policy(_read(args.policy))
    obj = ObjectId(args.object)
    decision = check_access(policy, model, args.user, args.op, obj)
    print("Allow" if decision is Decision.ALLOW else "Deny")
    return EXIT_OK if decision is Decision.ALLOW else EXIT_DENIED


def cmd_view(args: argparse.Namespace) -> int:
    model = model_io.load_model(_read(args.model))
    policy = model_io.load_policy(_read(args.policy))
    try:
        op_filter = _parse_filter(args.filter)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        if args.role is not None:
            permissions = role_permissions(policy, args.role)
            view = derive_view(policy, model, args.role, op_filter)
        else:
            permissions = user_permissions(policy, args.user)
            view = user_view(policy, model, args.user, op_filter)
    except NoPermissions as exc:
        return _fail(str(exc), EXIT_DENIED)
    document = {
        "subject": args.role if args.role is not None else args.user,
        "filter": args.filter,
        "permissions": _permission_rows(permissions),
        "view": _view_document(view),
    }
    if args.dot is not None:
        _write(args.dot, model_io.export_dot(model, view))
    print(json.dumps(document, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    model = model_io.load_model(_read(args.model))
    print(model_io.export_dot(model), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ovmrbac",
        description="Variability models under role-based access control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-example", help="write the bundled example documents")
    p.add_argument("out_dir")
    p.add_argument("--explain", action="store_true",
                   help="print the normalization table")
    p.set_defaults(func=cmd_init_example)

    p = sub.add_parser("validate", help="report model violations, one per line")
    p.add_argument("model")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("apply", help="run one access-checked model operation")
    p.add_argument("model")
    p.add_argument("policy")
    p.add_argument("--user", required=True)
    p.add_argument("--op", nargs="+", required=True, metavar=("OP", "ARG"),
                   help="operation name followed by its arguments")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("grant", help="grant an operation on objects to a role")
    p.add_argument("policy")
    p.add_argument("--objects", nargs="+", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--role", required=True)
    p.set_defaults(func=cmd_grant)

    p = sub.add_parser("assign", help="assign a role to a user")
    p.add_argument("policy")
    p.add_argument("--user", required=True)
    p.add_argument("--role", required=True)
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("check", help="print the access decision for one request")
    p.add_argument("model")
    p.add_argument("policy")
    p.add_argument("--user", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--object", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("view", help="derive a role- or user-specific view")
    p.add_argument("model")
    p.add_argument("policy")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--role")
    group.add_argument("--user")
    p.add_argument("--filter", default="any",
                   help="any, read, or op:<operation id>")
    p.add_argument("--dot", help="also write a DOT rendering to this path")
    p.set_defaults(func=cmd_view)

    p = sub.add_parser("render", help="print the model as DOT graph text")
    p.add_argument("model")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OvmRbacError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
