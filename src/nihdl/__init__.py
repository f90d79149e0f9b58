"""nihdl: a description language for network information hiding methods.

Parse, validate, render, compare and statistically analyze hiding-method
descriptions against a hierarchical hiding-pattern catalog, and assess
the novelty of proposed methods through a review workflow.
"""

from .analyze import (
    AttributeCounts,
    CombinedGroup,
    CorpusStats,
    CoverageVector,
    InconsistencyRow,
    UnknownAttributeError,
    combined_groups,
    comparison_matrix,
    completeness,
    corpus_stats,
    inconsistency_report,
    pattern_histogram,
)
from .diagnostics import Diagnostic, Severity, SourceLocation
from .dsl import Document, parse_catalog, parse_description, serialize, serialize_catalog
from .model import (
    ApplicationScenario,
    CarrierBinding,
    CarrierRequirements,
    ChannelCharacteristic,
    ChannelProperties,
    ControlProtocol,
    CountermeasureEntry,
    Justification,
    MethodDescription,
    PatternAssignment,
    Presence,
    ReceiverProcess,
    SenderProcess,
    SharedGroup,
    TrackedAttribute,
    WardenProfile,
    coverage,
    normalize,
)
from .novelty import (
    BigCCandidate,
    NoveltyVerdict,
    Rejected,
    SmallC,
    UndefinedTransitionError,
    WorkflowEvent,
    WorkflowStage,
    WorkflowState,
    accept_big_c,
    advance,
    assess,
)
from .store import Corpus, build_index, load_all, open_corpus
from .taxonomy import (
    PatternCatalog,
    PatternNode,
    PatternPath,
    UNASSIGNED,
    extend_catalog,
    list_leaves,
    render_chain,
    render_tree,
    resolve_path,
    seed_catalog,
)
from .validate import ValidationMode, validate_document

__version__ = "0.1.0"
