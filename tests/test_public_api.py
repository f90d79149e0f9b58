"""The package's public surface: every name ``nihdl`` exports, and the
README's library example."""

import re
from pathlib import Path

from conftest import GAP_FILE

README = Path(__file__).parent.parent / "README.md"

EXPORTS = """
    AttributeCounts CombinedGroup CorpusStats CoverageVector InconsistencyRow
    UnknownAttributeError combined_groups comparison_matrix completeness
    corpus_stats inconsistency_report pattern_histogram
    Diagnostic Severity SourceLocation
    Document parse_catalog parse_description serialize serialize_catalog
    ApplicationScenario CarrierBinding CarrierRequirements ChannelCharacteristic
    ChannelProperties ControlProtocol CountermeasureEntry Justification
    MethodDescription PatternAssignment Presence ReceiverProcess SenderProcess
    SharedGroup TrackedAttribute WardenProfile coverage normalize
    BigCCandidate NoveltyVerdict Rejected SmallC UndefinedTransitionError
    WorkflowEvent WorkflowStage WorkflowState accept_big_c advance assess
    Corpus build_index load_all open_corpus
    PatternCatalog PatternNode PatternPath UNASSIGNED extend_catalog list_leaves
    render_chain render_tree resolve_path seed_catalog
    ValidationMode validate_document
    __version__
""".split()


def test_every_export_imports():
    for name in EXPORTS:
        namespace: dict = {}
        exec(f"from nihdl import {name}", namespace)
        assert namespace[name] is not None, name


def test_readme_library_example_runs():
    readme = README.read_text(encoding="utf-8")
    section = readme[readme.index("## Library use"):]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {"text": GAP_FILE.read_text(encoding="utf-8")}
    exec(snippet, namespace)
    assert namespace["diagnostics"] == []
    assert namespace["findings"] == []
    assert namespace["stats"].total == 1
