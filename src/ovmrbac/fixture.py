"""The bundled example: a grid imaging service product line with three roles.

The model covers deployment-node, OS, processor, and authentication
variability; the policy gives a node expert broad rights, a security expert
the authentication group only, and an image expert two dependencies. Both
values are built through the guarded operations, never by raw construction,
so building the fixture exercises the operation layer end to end.

Element spellings are normalized to one canonical form per element (see
NORMALIZATIONS), and bindings left implicit in the source material are
completed (see COMPLETIONS) so that the model validates as complete.
"""

from __future__ import annotations

from . import model as ovm
from . import rbac
from .model import ConstraintKind, EndpointRef, Model, Universe, VariabilityKind
from .rbac import ObjectId, Policy

# (published spelling, canonical spelling, why)
NORMALIZATIONS: tuple[tuple[str, str, str], ...] = (
    ("SSLAAuth", "SSLAuth", "harmonized with the spelling used in the grants"),
    ("Sc. Linux", "Sc.Linux", "harmonized with the spelling in the excludes pair"),
    ("VP Processor", "Processor VP", "word order fixed to the declared name"),
    ("Grid Deployment", "Grid Deployment VP", "variation-point suffix restored"),
    ("AITGROUP", "ALTGROUP", "set name spelling"),
    (
        "requires V->V entries sourced at variation points",
        "requires VP->V",
        "retyped to the endpoint universes the names actually live in",
    ),
)

# Bindings the published excerpt elides ("..."); completed so every variant
# has exactly one variability dependency.
COMPLETIONS: tuple[str, ...] = (
    "mandatory dependency Processor -> Grid Deployment Node VP",
    "optional dependency Library Required -> Grid Deployment Node VP",
    "optional dependency Linux -> OS VP",
    "optional dependency Windows -> OS VP",
    "optional dependency Sc.Linux -> OS VP",
    "optional dependency Matlab -> Library Required VP",
    "requires Matlab -> Library Required VP",
)

MANDATORY_VPS = (
    "Authentication VP",
    "Grid Deployment Node VP",
    "Grid Deployment VP",
    "OS VP",
    "Processor VP",
    "CPU VP",
)

OPTIONAL_VPS = ("Linux VP", "Library Required VP")

VARIANTS = (
    "Kerberos",
    "Password",
    "SSLAuth",
    "Authentication",
    "OS",
    "File Size Limit",
    "Processor",
    "Sc.Linux",
    "Linux",
    "Windows",
    "GPU",
    "CPU",
    "x32",
    "x64",
    "Matlab",
    "Grid Deployment Node",
    "Library Required",
)

# (variant, variation point, kind)
DEPENDENCIES = (
    ("Authentication", "Grid Deployment Node VP", "mandatory"),
    ("OS", "Grid Deployment Node VP", "mandatory"),
    ("Processor", "Grid Deployment Node VP", "mandatory"),
    ("Grid Deployment Node", "Grid Deployment VP", "mandatory"),
    ("CPU", "Processor VP", "mandatory"),
    ("File Size Limit", "Grid Deployment Node VP", "optional"),
    ("GPU", "Processor VP", "optional"),
    ("Matlab", "Library Required VP", "optional"),
    ("Library Required", "Grid Deployment Node VP", "optional"),
    ("Linux", "OS VP", "optional"),
    ("Windows", "OS VP", "optional"),
    ("Sc.Linux", "OS VP", "optional"),
)

ALT_GROUPS = (
    (("Kerberos", "Password", "SSLAuth"), 1, 1, "Authentication VP"),
    (("x32", "x64"), 1, 1, "CPU VP"),
)

# (kind, source universe, source, target universe, target)
CONSTRAINTS = (
    ("requires", "variant", "Authentication", "vp", "Authentication VP"),
    ("requires", "variant", "Library Required", "vp", "Library Required VP"),
    ("requires", "variant", "Linux", "vp", "Linux VP"),
    ("requires", "variant", "OS", "vp", "OS VP"),
    ("requires", "variant", "CPU", "vp", "CPU VP"),
    ("requires", "variant", "Matlab", "vp", "Library Required VP"),
    ("requires", "vp", "Authentication VP", "variant", "Authentication"),
    ("requires", "vp", "Linux VP", "variant", "Linux"),
    ("excludes", "variant", "Matlab", "variant", "Sc.Linux"),
)

USERS = ("Alice", "Helen", "Bob")

ROLES = ("Grid Node Expert", "Image Expert", "Security Expert")

USER_ASSIGNMENTS = (
    ("Alice", "Grid Node Expert"),
    ("Helen", "Image Expert"),
    ("Bob", "Security Expert"),
)

# (object ids, operation, role), one row per GrantPermission2 call.
GRANTS: tuple[tuple[tuple[str, ...], str, str], ...] = (
    (("set:OBJECTS",), "read", "Grid Node Expert"),
    (("set:MAN_VP",), "add_Variation_Point", "Grid Node Expert"),
    (("set:MAN_VP",), "remove_Variation_Point", "Grid Node Expert"),
    (("altgroup:Authentication VP",), "readAltGroup", "Security Expert"),
    (("altgroup:Authentication VP",), "writeAltGroup", "Security Expert"),
    (("dep:Matlab->Library Required VP",), "readOptDep", "Image Expert"),
    (("dep:Matlab->Library Required VP",), "writeOptDep", "Image Expert"),
    (("dep:GPU->Processor VP",), "read", "Image Expert"),
)


def build_example_model() -> Model:
    """Construct the example model through the guarded operations."""
    model = ovm.new_empty_model()
    for name in MANDATORY_VPS:
        model = ovm.add_man_vp(model, name)
    for name in OPTIONAL_VPS:
        model = ovm.add_opt_vp(model, name)
    for name in VARIANTS:
        model = ovm.add_variant(model, name)
    for variant, vp, kind in DEPENDENCIES:
        model = ovm.add_dependency(model, variant, vp, VariabilityKind(kind))
    for members, min_card, max_card, vp in ALT_GROUPS:
        model = ovm.add_alt_group(model, members, min_card, max_card, vp)
    for kind, source_universe, source, target_universe, target in CONSTRAINTS:
        model = ovm.add_constraint(
            model,
            ConstraintKind(kind),
            EndpointRef(Universe(source_universe), source),
            EndpointRef(Universe(target_universe), target),
        )
    return model


def build_example_policy() -> Policy:
    """Construct the example policy through the administrative operations."""
    policy = rbac.new_empty_policy()
    for user in USERS:
        policy = rbac.add_user(policy, user)
    for role in ROLES:
        policy = rbac.add_role(policy, role)
    for user, role in USER_ASSIGNMENTS:
        policy = rbac.assign_user(policy, user, role)
    for objects, operation, role in GRANTS:
        policy = rbac.grant_permission2(
            policy, [ObjectId(text) for text in objects], operation, role
        )
    return policy


def explain_normalization() -> str:
    """Human-readable table of spelling fixes and completed bindings."""
    lines = ["Normalized spellings:"]
    for published, canonical, why in NORMALIZATIONS:
        lines.append(f"  {published!r} -> {canonical!r}  ({why})")
    lines.append("Completed bindings (elided in the published excerpt):")
    for entry in COMPLETIONS:
        lines.append(f"  {entry}")
    return "\n".join(lines) + "\n"
