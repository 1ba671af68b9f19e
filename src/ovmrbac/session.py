"""Access-mediated model editing and permission-derived views.

Every mutation request is funneled through ``execute``: the request is
mapped to its access-control operation id and target object, the access
check runs first (so a denied caller learns nothing about model structure
from precondition errors), and only on Allow is the guarded model operation
applied. The session log records one entry per request, whatever the
outcome.

Views project a model down to the elements a role's permissions admit.
A visible relation carries its member variants along (a variant is just a
name, so nothing extra leaks), while a referenced variation point that no
permission admits appears as an opaque stub: its name is shown, its
mandatory/optional kind withheld.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, NamedTuple, Sized

from . import model as ovm
from .errors import NoPermissions, OvmRbacError
from .model import (
    AltGroup,
    Constraint,
    ConstraintKind,
    Dependency,
    EndpointRef,
    Model,
    Universe,
    VariabilityKind,
    VariationPoint,
    Variant,
)
from .rbac import (
    KIND_OBJECTS,
    Category,
    Decision,
    ObjectId,
    Permission,
    Policy,
    READ_LIKE_OPERATIONS,
    alt_group_object,
    category_object,
    check_access,
    constraint_object,
    dependency_object,
    element_category,
    element_text,
    model_elements,
    role_permissions,
    user_permissions,
    variant_object,
    vp_object,
)


class ArgKind(NamedTuple):
    """One kind of request argument.

    ``check`` normalizes a library argument or raises. ``parse`` turns its
    command-line text into a library argument, raising ValueError when the
    text spells none; ``label`` names the kind in command-line usage.
    """

    label: str
    check: Callable[[object], object]
    parse: Callable[[str], object] = str


def _name_set(value) -> frozenset[str]:
    if isinstance(value, str) or not hasattr(value, "__iter__"):
        raise ValueError(f"expected a collection of names, got {value!r}")
    return frozenset(map(ovm.check_name, value))


def _integer(value) -> int:
    if not isinstance(value, int):
        raise ValueError("group cardinalities must be integers")
    return value


def _value_kind(label: str, cls: type, parse: Callable[[str], object]) -> ArgKind:
    """The kind of an argument that must already be a ``cls`` value."""

    def check(value):
        if not isinstance(value, cls):
            raise ValueError(f"expected a {cls.__name__}, got {value!r}")
        return value

    return ArgKind(label, check, parse)


def _endpoint(text: str) -> EndpointRef:
    universe, _, name = text.partition(":")
    return EndpointRef(Universe(universe), name)


NAME = ArgKind("NAME", ovm.check_name)
NAMES = ArgKind("VARIANT VARIANT...", _name_set, frozenset)  # a list on the command line
INT = ArgKind("INT", _integer, int)
VARIABILITY = _value_kind("mandatory|optional", VariabilityKind, VariabilityKind)
CONSTRAINT_KIND = _value_kind("requires|excludes", ConstraintKind, ConstraintKind)
ENDPOINT = _value_kind("variant:NAME|vp:NAME", EndpointRef, _endpoint)


@dataclass(frozen=True)
class OpSpec:
    """One request operation.

    ``params`` are the argument kinds in library order. ``resolve`` maps the
    arguments and the current model to the (RBAC operation id, target
    object) the access check sees. ``function`` names the guarded model
    function that applies the request; it is looked up in the model module
    at call time, so rebinding that module's names reaches every request.
    """

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
    kind = next(
        (d.kind for d in model.dependencies if (d.variant, d.vp) == args),
        VariabilityKind.OPTIONAL,
    )
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


@dataclass(frozen=True)
class OpRequest:
    """One mutation request: an operation name plus its positional payload.

    Requests are validated on construction (operation name, payload arity,
    each argument against its kind), so ``execute`` never has to fail: every
    constructible request yields an Outcome.
    """

    op: str
    args: tuple

    def __post_init__(self) -> None:
        spec = OPERATIONS.get(self.op)
        if spec is None:
            raise ValueError(f"unknown request operation {self.op!r}")
        if not isinstance(self.args, Sized) or len(self.args) != len(spec.params):
            raise ValueError(
                f"{self.op} takes {len(spec.params)} argument(s), got {self.args!r}"
            )
        checked = [kind.check(arg) for kind, arg in zip(spec.params, self.args)]
        object.__setattr__(self, "args", tuple(checked))

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


@dataclass(frozen=True)
class Outcome:
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


@dataclass(frozen=True)
class LogEntry:
    request: OpRequest
    decision: Decision
    outcome: Outcome

    def render(self) -> str:
        return (
            f"{self.request.render()} decision={self.decision.value} "
            f"outcome={self.outcome.render()}"
        )


@dataclass
class Session:
    """A single user's editing session over one model/policy snapshot pair.

    Single-writer by contract: callers serialize execute() calls. The log
    is append-only, one entry per execute call.
    """

    user: str
    model: Model
    policy: Policy
    log: list[LogEntry] = field(default_factory=list)


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


@dataclass(frozen=True)
class OperationFilter:
    """Keeps permissions whose operation matches: any, read-like, or exact."""

    mode: str  # "any" | "read" | "exact"
    operation: str | None = None

    def allows(self, operation: str) -> bool:
        if self.mode == "any":
            return True
        if self.mode == "read":
            return operation in READ_LIKE_OPERATIONS
        return operation == self.operation


ANY_OPERATION = OperationFilter("any")
READ_LIKE = OperationFilter("read")


def exact_operation(operation: str) -> OperationFilter:
    return OperationFilter("exact", operation)


@dataclass(frozen=True)
class ViewModel(Model):
    """A role-specific projection of a model.

    A model, plus the names of variation points that visible relations
    reference without any permission admitting them (stubs), and
    per-element provenance: which permissions admitted each element. A view
    makes no well-formedness claim of its own; it is an induced
    substructure of a valid model.
    """

    vp_stubs: frozenset[str] = frozenset()
    provenance: Mapping[str, frozenset[Permission]] = field(default_factory=dict)

    def element_ids(self) -> frozenset[str]:
        """Canonical ids of every visible element (stubs excluded)."""
        return frozenset(map(element_text, model_elements(self)))


def _build_view(
    permissions: frozenset[Permission], model: Model, op_filter: OperationFilter
) -> ViewModel:
    # The permissions that pass the filter, keyed by category or by exact id.
    granted: dict[object, set[Permission]] = {}
    for perm in permissions:
        if op_filter.allows(perm.operation):
            granted.setdefault(perm.object.category or perm.object.text, set()).add(perm)
    everywhere = granted.get(Category.OBJECTS, frozenset())
    shown: dict[type, set] = defaultdict(set)
    provenance: dict[str, set[Permission]] = {}

    def admit(element, perms: set[Permission]) -> None:
        shown[type(element)].add(element)
        provenance.setdefault(element_text(element), set()).update(perms)

    # Dangling element grants match no element and stay inert.
    for element in model_elements(model):
        category = element_category(element)
        perms = everywhere.union(
            granted.get(element_text(element), ()), granted.get(category, ())
        )
        if perms:
            admit(element, perms)

    # Visible relations carry their variant endpoints along; variation-point
    # endpoints that no permission admits become stubs with the kind hidden.
    referenced_vps: set[str] = set()
    for dep in shown[Dependency]:
        admit(Variant(dep.variant), provenance[element_text(dep)])
        referenced_vps.add(dep.vp)
    for group in shown[AltGroup]:
        perms = provenance[element_text(group)]
        for member in group.variants:
            admit(Variant(member), perms)
        referenced_vps.add(group.vp)
    for c in shown[Constraint]:
        perms = provenance[element_text(c)]
        for ref in (c.source, c.target):
            if ref.universe is Universe.VARIANT:
                admit(Variant(ref.name), perms)
            else:
                referenced_vps.add(ref.name)

    return ViewModel(
        variation_points=frozenset(shown[VariationPoint]),
        variants=frozenset(shown[Variant]),
        dependencies=frozenset(shown[Dependency]),
        alt_groups=frozenset(shown[AltGroup]),
        constraints=frozenset(shown[Constraint]),
        vp_stubs=frozenset(referenced_vps - {p.name for p in shown[VariationPoint]}),
        provenance={k: frozenset(v) for k, v in provenance.items()},
    )


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
    return _build_view(permissions, model, op_filter)


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
    return _build_view(user_permissions(policy, user), model, op_filter)
