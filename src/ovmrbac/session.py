"""Access-mediated model editing and permission-derived views.

Every mutation request is funneled through ``execute``: the request is
mapped to its access-control operation id and target object, the access
check runs first (so a denied caller learns nothing about model structure
from precondition errors), and only on Allow is the guarded model operation
applied. The session log records one entry per request, whatever the
outcome.

A view is asked for here by its subject (a role or a user) and an operation
filter; ``rbac.build_view`` projects the model onto the grants that remain.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Sized

from . import model as ovm
from .errors import NoPermissions, OvmRbacError
from .model import ConstraintKind, EndpointRef, Model, Record, Universe, VariabilityKind
from .rbac import (
    KIND_OBJECTS,
    Category,
    Decision,
    ObjectId,
    Policy,
    READ_LIKE_OPERATIONS,
    ViewModel,
    alt_group_object,
    build_view,
    category_object,
    check_access,
    constraint_object,
    dependency_object,
    role_permissions,
    user_permissions,
    variant_object,
    vp_object,
)


class ArgKind(Record):
    """One kind of request argument.

    ``check`` normalizes a library argument or raises. ``parse`` turns its
    command-line text into a library argument, raising ValueError when the
    text spells none; ``label`` names the kind in command-line usage.
    """

    __slots__ = ()
    label: str
    check: Callable[[object], object]
    parse: Callable[[str], object] = str


def _value_kind(label: str, cls: type, parse: Callable[[str], object]) -> ArgKind:
    """The kind of an argument that must already be a ``cls`` value."""
    return ArgKind(label, lambda value: ovm.check_type(value, cls), parse)


def _endpoint(text: str) -> EndpointRef:
    universe, _, name = text.partition(":")
    return EndpointRef(Universe(universe), name)


NAME = ArgKind("NAME", ovm.check_name)
NAMES = ArgKind("VARIANT VARIANT...", ovm.group_members, frozenset)  # a list in argv
INT = _value_kind("INT", int, int)
VARIABILITY = _value_kind("mandatory|optional", VariabilityKind, VariabilityKind)
CONSTRAINT_KIND = _value_kind("requires|excludes", ConstraintKind, ConstraintKind)
ENDPOINT = _value_kind("variant:NAME|vp:NAME", EndpointRef, _endpoint)


class OpSpec(Record):
    """One request operation.

    ``params`` are the argument kinds in library order. ``resolve`` maps the
    arguments and the current model to the (RBAC operation id, target
    object) the access check sees. ``function`` names the guarded model
    function that applies the request; it is looked up in the model module
    at call time, so rebinding that module's names reaches every request.
    """

    __slots__ = ()
    params: tuple
    function: str
    resolve: Callable[[tuple, Model], tuple[str, ObjectId]]


# Additions of variation points, variants and dependencies target the category
# the new element will join, exactly as the example policy grants them.
# Removals target the element id; category grants still cover it through
# dynamic membership. Alt-group and constraint requests target their element
# id, which the arguments fully determine, so per-element grants can scope
# creation as well.
def _joins(operation: str, category: Category) -> Callable:
    target = category_object(category)
    return lambda args, model: (operation, target)


def _names(operation: str, object_id: Callable[..., ObjectId]) -> Callable:
    return lambda args, model: (operation, object_id(*args))


def _add_dependency(args: tuple, model: Model) -> tuple[str, ObjectId]:
    objects = KIND_OBJECTS[args[2]]
    return objects.dep_write, category_object(objects.dep_category)


def _remove_dependency(args: tuple, model: Model) -> tuple[str, ObjectId]:
    # the kind of the dependency removed; a missing one counts as optional
    dep = ovm.dependency_between(model, *args)
    kind = dep.kind if dep else VariabilityKind.OPTIONAL
    return KIND_OBJECTS[kind].dep_write, dependency_object(*args)


_CONSTRAINT = (CONSTRAINT_KIND, ENDPOINT, ENDPOINT)

OPERATIONS: dict[str, OpSpec] = {
    "addManVP": OpSpec(
        (NAME,), "add_man_vp", _joins("add_Variation_Point", Category.MAN_VP)
    ),
    "addOptVP": OpSpec(
        (NAME,), "add_opt_vp", _joins("add_Variation_Point", Category.OPT_VP)
    ),
    "removeManVP": OpSpec(
        (NAME,), "remove_man_vp", _names("remove_Variation_Point", vp_object)
    ),
    "removeOptVP": OpSpec(
        (NAME,), "remove_opt_vp", _names("remove_Variation_Point", vp_object)
    ),
    "addVariant": OpSpec(
        (NAME,), "add_variant", _joins("add_Variant", Category.VARIANT)
    ),
    "removeVariant": OpSpec(
        (NAME,), "remove_variant", _names("remove_Variant", variant_object)
    ),
    "addDependency": OpSpec(
        (NAME, NAME, VARIABILITY), "add_dependency", _add_dependency
    ),
    "removeDependency": OpSpec((NAME, NAME), "remove_dependency", _remove_dependency),
    "addAltGroup": OpSpec(
        (NAMES, INT, INT, NAME), "add_alt_group",
        lambda args, model: ("add_AltGroup", alt_group_object(args[3])),
    ),
    "removeAltGroup": OpSpec(
        (NAME,), "remove_alt_group", _names("remove_AltGroup", alt_group_object)
    ),
    "addConstraint": OpSpec(
        _CONSTRAINT, "add_constraint", _names("add_Constraint", constraint_object)
    ),
    "removeConstraint": OpSpec(
        _CONSTRAINT, "remove_constraint", _names("remove_Constraint", constraint_object)
    ),
}

# The mutation requests a session accepts; read access is served by
# check_access and the view derivations instead.
REQUEST_OPS: tuple[str, ...] = tuple(OPERATIONS)


class OpRequest(Record):
    """One mutation request: an operation name plus its positional payload.

    Requests are validated on construction (operation name, payload arity,
    each argument against its kind), so ``execute`` never has to fail: every
    constructible request yields an Outcome.
    """

    __slots__ = ()
    op: str
    args: tuple

    def __new__(cls, op: str, args: tuple):
        spec = OPERATIONS.get(op)
        if spec is None:
            raise ValueError(f"unknown request operation {op!r}")
        if not isinstance(args, Sized) or len(args) != len(spec.params):
            raise ValueError(f"{op} takes {len(spec.params)} argument(s), got {args!r}")
        checked = [kind.check(arg) for kind, arg in zip(spec.params, args)]
        return tuple.__new__(cls, (op, tuple(checked)))

    def render(self) -> str:
        parts = []
        for arg in self.args:
            if isinstance(arg, frozenset):
                parts.append("{" + ", ".join(sorted(arg)) + "}")
            elif isinstance(arg, Enum):
                parts.append(arg.value)
            else:
                parts.append(str(arg))
        return f"{self.op}({', '.join(parts)})"


def resolve_request(request: OpRequest, model: Model) -> tuple[str, ObjectId]:
    """Map a request onto its (operation id, target object) for the check."""
    return OPERATIONS[request.op].resolve(request.args, model)


def apply_request(request: OpRequest, model: Model) -> Model:
    """Run the guarded model operation a request names."""
    function = getattr(ovm, OPERATIONS[request.op].function)
    return function(model, *request.args)


class OutcomeStatus(Enum):
    APPLIED = "applied"
    DENIED = "denied"
    REJECTED = "rejected"


class Outcome(Record):
    __slots__ = ()
    status: OutcomeStatus
    model: Model | None = None
    error: OvmRbacError | None = None

    @property
    def applied(self) -> bool:
        return self.status is OutcomeStatus.APPLIED

    def render(self) -> str:
        if self.status is OutcomeStatus.REJECTED:
            return f"rejected: {type(self.error).__name__}: {self.error}"
        return self.status.value


class LogEntry(Record):
    __slots__ = ()
    request: OpRequest
    decision: Decision
    outcome: Outcome

    def render(self) -> str:
        return (
            f"{self.request.render()} decision={self.decision.value} "
            f"outcome={self.outcome.render()}"
        )


class Session:
    """A single user's editing session over one model/policy snapshot pair.

    Single-writer by contract: callers serialize execute() calls. The log
    is append-only, one entry per execute call.
    """

    __slots__ = ("user", "model", "policy", "log")

    def __init__(self, user: str, model: Model, policy: Policy):
        self.user, self.model, self.policy, self.log = user, model, policy, []


def execute(session: Session, request: OpRequest) -> Outcome:
    """Check access, then apply; the model never changes on Deny or Reject."""
    rbac_op, target = resolve_request(request, session.model)
    decision = check_access(
        session.policy, session.model, session.user, rbac_op, target
    )
    if decision is Decision.DENY:
        outcome = Outcome(OutcomeStatus.DENIED)
    else:
        try:
            new_model = apply_request(request, session.model)
        except OvmRbacError as exc:
            outcome = Outcome(OutcomeStatus.REJECTED, error=exc)
        else:
            session.model = new_model
            outcome = Outcome(OutcomeStatus.APPLIED, model=new_model)
    session.log.append(LogEntry(request, decision, outcome))
    return outcome


# --- views ---------------------------------------------------------------------


class OperationFilter(Record):
    """Keeps permissions whose operation is in ``operations``, frozen to a
    frozenset (a string raises TypeError); None keeps all."""

    __slots__ = ()
    operations: frozenset[str] | None

    def __new__(cls, operations: Iterable[str] | None = None):
        if isinstance(operations, str):
            raise TypeError("operations must be a collection of ids, not a string")
        if operations is not None:
            operations = frozenset(operations)
        return tuple.__new__(cls, (operations,))


ANY_OPERATION = OperationFilter()
READ_LIKE = OperationFilter(READ_LIKE_OPERATIONS)


def exact_operation(operation: str) -> OperationFilter:
    return OperationFilter(frozenset({operation}))


def derive_view(
    policy: Policy,
    model: Model,
    role: str,
    op_filter: OperationFilter = ANY_OPERATION,
) -> ViewModel:
    """The information set a role's permissions admit, as a model projection.

    The role must be known and must have permissions assigned; a known role
    with an empty permission set raises NoPermissions as a distinct signal.
    """
    permissions = role_permissions(policy, role)
    if not permissions:
        raise NoPermissions(f"role {role!r} has no permissions assigned")
    return build_view(permissions, model, op_filter.operations)


def user_view(
    policy: Policy,
    model: Model,
    user: str,
    op_filter: OperationFilter = ANY_OPERATION,
) -> ViewModel:
    """One projection over the union of the permissions of the user's roles.

    Every step of a view is a union over single permissions, so this equals
    the union of the user's role views. A user without permissions gets an
    empty view.
    """
    return build_view(user_permissions(policy, user), model, op_filter.operations)
