"""The package's public surface: every name ``nihdl`` exports, the
README's library example, and what each entry point imports."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nihdl
from conftest import CATALOG_FILE, GAP_FILE, SYNTHETIC_DIR

README = Path(__file__).parent.parent / "README.md"
SRC = Path(nihdl.__file__).parent.parent

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


SUBMODULES = "analyze diagnostics dsl model novelty store taxonomy validate".split()


def _fresh(*lines: str) -> tuple[set[str], str]:
    """Run ``lines`` in a new interpreter on this source tree; return the
    modules they add to a bare interpreter's ``sys.modules``, and stdout."""
    script = "\n".join([
        "import sys", "_before = set(sys.modules)", *lines,
        "sys.stdout.flush()",
        "sys.__stdout__.write('\\n' + ' '.join(sorted(set(sys.modules) - _before)))",
    ])
    env = {k: v for k, v in os.environ.items() if k != "NIHDL_CATALOG"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    output, _, modules = done.stdout.rpartition("\n")
    return set(modules.split()), output


def test_import_nihdl_loads_no_submodule():
    added, _ = _fresh("import nihdl")
    assert "nihdl" in added
    assert not [m for m in added if m.startswith("nihdl.")]


HEAVY = {"nihdl.analyze", "nihdl.novelty", "fractions", "json", "csv"}


@pytest.mark.parametrize("run", [
    "",
    f"cli.main(['validate', '--catalog', {str(CATALOG_FILE)!r}, {str(GAP_FILE)!r}])",
], ids=["import", "validate"])
def test_validate_loads_neither_analytics_nor_novelty(run):
    added, _ = _fresh("import nihdl.cli", "cli = nihdl.cli", run)
    assert "nihdl.cli" in added
    assert added & HEAVY == set()


def test_stats_loads_analyze_when_it_runs():
    added, output = _fresh(
        "import nihdl.cli",
        "assert 'nihdl.analyze' not in sys.modules",
        "cli = nihdl.cli",
        f"cli.main(['stats', {str(SYNTHETIC_DIR)!r}, '--format', 'json'])")
    assert {"nihdl.analyze", "json"} <= added
    assert '"total": 131' in output


# What importing dataclasses costs: it imports inspect, which imports these.
DATACLASS_MACHINERY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_validate_and_stats_load_neither_dataclasses_nor_inspect():
    files = sorted(str(p) for p in (SYNTHETIC_DIR / "descriptions").glob("*.nihd"))
    added, output = _fresh(
        "import nihdl.cli",
        "cli = nihdl.cli",
        f"cli.main(['validate', '--catalog', {str(SYNTHETIC_DIR / 'catalog.nihc')!r}, *{files!r}])",
        f"cli.main(['stats', {str(SYNTHETIC_DIR)!r}, '--format', 'json'])")
    assert {"nihdl.cli", "nihdl.analyze"} <= added
    assert added & DATACLASS_MACHINERY == set()
    assert '"total": 131' in output


def test_dataclass_fields_work_as_the_first_touch_of_a_value_class():
    added, output = _fresh(
        "import dataclasses, nihdl.model",
        "print(*(f.name for f in dataclasses.fields(nihdl.model.MethodDescription)))")
    assert "dataclasses" in added
    assert output.split() == [
        "name", "pattern", "carrier", "sender", "receiver", "channel", "source", "year",
        "scenario", "control_protocol", "countermeasures", "warden", "location"]


def test_star_import_binds_the_exports_and_the_submodules():
    _, output = _fresh("namespace = {}", "exec('from nihdl import *', namespace)",
                       "print(*sorted(set(namespace) - {'__builtins__'}))")
    names = output.split()
    assert sorted(names) == sorted(set(EXPORTS) - {"__version__"} | set(SUBMODULES))
    assert len(names) == 73


def test_all_and_dir_list_every_export():
    exports = set(EXPORTS) - {"__version__"}
    assert exports <= set(nihdl.__all__)
    assert exports <= set(dir(nihdl))
    assert set(SUBMODULES) <= set(dir(nihdl))


def test_submodules_resolve_as_attributes_after_a_plain_import():
    lines = [f"assert type(nihdl.{m}).__name__ == 'module'"
             f" and nihdl.{m}.__name__ == 'nihdl.{m}'" for m in SUBMODULES]
    added, _ = _fresh("import nihdl", *lines)
    assert {f"nihdl.{m}" for m in SUBMODULES} <= added


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError) as raised:
        nihdl.no_such_name
    assert str(raised.value) == "module 'nihdl' has no attribute 'no_such_name'"


# Syntax that Python 3.11 added to `re`; 3.10, the floor pyproject.toml
# declares, refuses it when the pattern is compiled, so at import.
NEWER_THAN_FLOOR = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}  # `*+ ++ ?+ }+` and `(?>`


def _opcodes(item):
    """The name of every opcode in a parsed pattern, through groups and branches."""
    if isinstance(item, re._parser.SubPattern):
        for op, arg in item:
            yield str(op)
            yield from _opcodes(arg)
    elif isinstance(item, (tuple, list)):
        for part in item:
            yield from _opcodes(part)


def test_no_compiled_pattern_needs_python_newer_than_the_floor():
    assert set(_opcodes(re._parser.parse("a*+(?>b)"))) >= NEWER_THAN_FLOOR
    patterns = {}
    for name in ["nihdl", *(m.name for m in pkgutil.iter_modules(nihdl.__path__, "nihdl."))]:
        patterns.update((f"{name}.{key}", value)
                        for key, value in vars(importlib.import_module(name)).items()
                        if isinstance(value, re.Pattern))
    assert {"nihdl.dsl._SCAN", "nihdl.dsl._TOKEN", "nihdl.diagnostics._CODE_RE"} <= set(patterns)
    assert {name: NEWER_THAN_FLOOR & set(_opcodes(re._parser.parse(p.pattern, p.flags)))
            for name, p in patterns.items()} == dict.fromkeys(patterns, set())
