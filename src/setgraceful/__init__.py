"""Set-graceful labelings of finite simple graphs: decide, search, verify.

The public names below are imported from their modules on first access
(PEP 562), so a process loads only the modules it uses: a CLI ``check``
compiles neither the search engine, nor the conditions, nor the oracle.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

_EXPORTS = {
    "conditions": (
        "EDGE_COUNT_INFEASIBLE",
        "NON_STAR_IMPOSSIBLE",
        "STAR_ADMITS",
        "FeasibilityVerdict",
        "ProofStep",
        "ProofTrace",
        "StarDecision",
        "TraceNotApplicableError",
        "construct_star_labeling",
        "feasible_ground_size",
        "proof_trace",
        "star_theorem_decision",
    ),
    "graph": (
        "Bipartition",
        "Graph",
        "GraphParseError",
        "complete_bipartition",
        "make_complete_bipartite",
        "make_cycle",
        "make_path",
        "read_graph",
        "write_graph",
    ),
    "labeling": (
        "Labeling",
        "LabelingParseError",
        "ValidationReport",
        "edge_labels",
        "edge_preimage",
        "is_set_graceful",
        "normalize_anchor",
        "read_labeling",
        "translate",
        "validate",
        "write_labeling",
    ),
    "labels": (
        "MAX_GROUND_SIZE",
        "check_ground_size",
        "format_label",
        "parse_label",
        "sym_diff",
    ),
    "oracle": ("EnumerationCapError", "brute_force_enumerate"),
    "search": ("SearchConfig", "SearchOutcome", "search", "vertex_order"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


class _Package(ModuleType):
    def __setattr__(self, name: str, value: object) -> None:
        # Importing the submodule setgraceful.search binds it here, under the
        # name of the function it defines; the package keeps the function.
        if name == "search" and isinstance(value, ModuleType):
            value = value.search
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
