"""nihdl: a description language for network information hiding methods.

Parse, validate, render, compare and statistically analyze hiding-method
descriptions against a hierarchical hiding-pattern catalog, and assess
the novelty of proposed methods through a review workflow.

``import nihdl`` loads no submodule. Each exported name, and each
submodule, is imported on first access (PEP 562), so a program pays only
for the parts it uses; ``from nihdl import *`` loads them all.
"""

import sys

__version__ = "0.1.0"

# Submodule -> the names the package exports from it.
_EXPORTS = {
    "analyze": (
        "AttributeCounts", "CombinedGroup", "CorpusStats", "CoverageVector",
        "InconsistencyRow", "UnknownAttributeError", "combined_groups",
        "comparison_matrix", "completeness", "corpus_stats", "inconsistency_report",
        "pattern_histogram",
    ),
    "diagnostics": ("Diagnostic", "Severity", "SourceLocation"),
    "dsl": ("Document", "parse_catalog", "parse_description", "serialize", "serialize_catalog"),
    "model": (
        "ApplicationScenario", "CarrierBinding", "CarrierRequirements",
        "ChannelCharacteristic", "ChannelProperties", "ControlProtocol",
        "CountermeasureEntry", "Justification", "MethodDescription", "PatternAssignment",
        "Presence", "ReceiverProcess", "SenderProcess", "SharedGroup", "TrackedAttribute",
        "WardenProfile", "coverage", "normalize",
    ),
    "novelty": (
        "BigCCandidate", "NoveltyVerdict", "Rejected", "SmallC", "UndefinedTransitionError",
        "WorkflowEvent", "WorkflowStage", "WorkflowState", "accept_big_c", "advance", "assess",
    ),
    "store": ("Corpus", "build_index", "load_all", "open_corpus"),
    "taxonomy": (
        "PatternCatalog", "PatternNode", "PatternPath", "UNASSIGNED", "extend_catalog",
        "list_leaves", "render_chain", "render_tree", "resolve_path", "seed_catalog",
    ),
    "validate": ("ValidationMode", "validate_document"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_ORIGIN, *_EXPORTS]


def _submodule(name: str):
    # __import__ runs the import statement's machinery, which -X importtime
    # times; importlib.import_module would fold the submodule into its caller.
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _submodule(name)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_ORIGIN[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
