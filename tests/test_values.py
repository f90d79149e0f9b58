"""Value semantics of the package's frozen dataclasses: ``repr``, ``==``,
``hash`` and immutability, pinned so that how these methods are made can
change without any value reading or comparing differently."""

import copy
import dataclasses
import hashlib
import importlib
import inspect
import os
import pickle
import pkgutil
import random
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import nihdl
from nihdl import diagnostics, dsl, model
from nihdl.analyze import CorpusStats, corpus_stats
from nihdl.diagnostics import Diagnostic, SourceLocation
from nihdl.novelty import (
    BigCCandidate,
    ContributionKind,
    NoveltyVerdict,
    Rejected,
    SmallC,
    WorkflowStage,
    WorkflowState,
)
from nihdl.taxonomy import PatternPath, resolve_path, seed_catalog
from nihdl.validate import validate_document

from conftest import SYNTHETIC_DIR
from randgen import document


def _synthetic_diagnostics():
    """Parse and survey-validate the synthetic corpus under bare file names,
    so no location depends on where the tests run."""
    catalog, diagnostics = dsl.parse_catalog(
        (SYNTHETIC_DIR / "catalog.nihc").read_text(encoding="utf-8"), "catalog.nihc")
    for path in sorted((SYNTHETIC_DIR / "descriptions").glob("*.nihd")):
        doc, diags = dsl.parse_description(path.read_text(encoding="utf-8"), path.name)
        diagnostics += diags
        if doc is not None:
            diagnostics += validate_document(doc, catalog)
    return diagnostics


def _one_of_each():
    """One value of each novelty, Resolution and diagnostics class."""
    catalog = seed_catalog()
    leaf = PatternPath(("Network Covert Timing Channels", "Inter-arrival Time Pattern"))
    return [
        NoveltyVerdict(),
        SmallC(leaf),
        BigCCandidate(PatternPath(("Timing",)), 'New "x"', "because\\"),
        Rejected("no path"),
        WorkflowState(WorkflowStage.UNDER_REVIEW),
        WorkflowState(WorkflowStage.PUBLISHED, ContributionKind.BIG_C),
        resolve_path(catalog, leaf),
        resolve_path(catalog, PatternPath(leaf.elements[:1])),
        resolve_path(catalog, PatternPath((leaf.elements[0], "nowhere"))),
        SourceLocation("a b.nihd", 3, 14),
        Diagnostic("W200", "msg 'q'", SourceLocation("f", 1, 1), "mé"),
        Diagnostic("I300", "no location"),
    ]


def test_reprs_are_pinned():
    rng = random.Random(2424)
    digest = hashlib.sha256()
    for _ in range(500):
        digest.update(repr(document(rng)).encode())
    for value in (seed_catalog(), _synthetic_diagnostics(), _one_of_each()):
        digest.update(repr(value).encode())
    assert len(_synthetic_diagnostics()) == 1196
    assert digest.hexdigest() == (
        "ba6c416fd9af508e96986cdda513628d4a814e8c84695a59b9b5510ec5020eab")


def _repr_digest(hash_seed: str) -> str:
    """SHA-256 of the ``repr`` of 100 seeded random documents, computed in a
    new interpreter whose string hashing is seeded with ``hash_seed``."""
    script = "\n".join([
        "import hashlib, random",
        "from randgen import document",
        "rng, digest = random.Random(2429), hashlib.sha256()",
        "for _ in range(100):",
        "    digest.update(repr(document(rng)).encode())",
        "print(digest.hexdigest())",
    ])
    path = os.pathsep.join((str(Path(nihdl.__file__).parent.parent), str(Path(__file__).parent)))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_repr_does_not_depend_on_the_process():
    # A frozenset's repr lists its members in string-hash order, which
    # PYTHONHASHSEED varies from process to process.
    assert _repr_digest("1") == _repr_digest("2")


def _compare_tuple(value):
    return tuple(getattr(value, f.name) for f in dataclasses.fields(value) if f.compare)


def test_hash_is_that_of_the_compared_fields():
    rng = random.Random(2425)
    doc = document(rng)
    values = [doc, *doc.methods, seed_catalog(), *_one_of_each()]
    for value in values:
        assert hash(value) == hash(_compare_tuple(value)), type(value).__name__
        assert value == copy.copy(value) and not value != copy.copy(value)


def test_fields_left_out_of_equality_change_neither_eq_nor_hash():
    doc = document(random.Random(2426))
    method = doc.methods[0]
    moved = dataclasses.replace(method, location=SourceLocation("elsewhere", 9, 9))
    assert moved == method and hash(moved) == hash(method)
    renamed = dataclasses.replace(doc, source_file="other.nihd")
    assert renamed == doc and hash(renamed) == hash(doc)
    assert repr(renamed) != repr(doc) and repr(moved) == repr(method)
    stats = corpus_stats(list(doc.methods), seed_catalog())
    flagged = dataclasses.replace(stats, diagnostics=(Diagnostic("I300", "x"),))
    assert flagged == stats and repr(flagged) != repr(stats)
    # A dict field makes CorpusStats unhashable, as the generated hash was.
    with pytest.raises(TypeError):
        hash(stats)
    assert isinstance(stats, CorpusStats)


def test_values_of_different_classes_are_unequal():
    path = PatternPath(("Timing",))

    class Subclass(SmallC):
        pass

    assert SmallC(path) != Subclass(path) and Subclass(path) != SmallC(path)
    assert Rejected("x") != model.SharedGroup("x")
    assert NoveltyVerdict() == NoveltyVerdict() and NoveltyVerdict() != Rejected("x")
    assert SmallC(path) != path
    for value in _one_of_each():
        assert value.__eq__(object()) is NotImplemented
        assert value.__eq__(_compare_tuple(value)) is NotImplemented


def test_a_field_cannot_be_assigned_or_deleted():
    method = document(random.Random(2427)).methods[0]
    for value in (method, method.channel, seed_catalog(), *_one_of_each()):
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, f.name)
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'x'$"):
        method.x = 1
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot delete field 'name'$"):
        del method.name

    # On a plain subclass only the fields are refused.
    class Subclass(SmallC):
        pass

    value = Subclass(PatternPath(("Timing",)))
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'path'$"):
        value.path = None
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot delete field 'path'$"):
        del value.path
    value.note = "kept"
    assert value.note == "kept"
    del value.note
    assert not hasattr(value, "note") and value == Subclass(PatternPath(("Timing",)))


def test_copies_replacements_and_dicts_keep_working():
    doc = document(random.Random(2428))
    for value in (doc, seed_catalog(), *_one_of_each()):
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value)), dataclasses.replace(value)):
            assert twin == value and repr(twin) == repr(value)
        assert isinstance(dataclasses.asdict(value), dict)


def _value_classes():
    """Every dataclass defined in a nihdl submodule."""
    for info in pkgutil.iter_modules(nihdl.__path__):
        module = importlib.import_module(f"nihdl.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and "__dataclass_fields__" in vars(obj)):
                yield obj


def test_every_value_class_takes_eq_hash_and_repr_from_the_helper():
    # A class made with plain @dataclass(frozen=True) gets generated methods,
    # which dataclasses compiles from source named "<string>".
    classes = list(_value_classes())
    assert len(classes) == 34
    helper = diagnostics.value_class.__code__.co_consts
    for cls in classes:
        for name in ("__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
            assert vars(cls)[name].__code__ in helper, (cls.__qualname__, name)
        generated = {name for name, fn in vars(cls).items()
                     if getattr(fn, "__code__", None) is not None
                     and fn.__code__.co_filename == "<string>"}
        assert generated == {"__init__"}, cls.__qualname__


@pytest.mark.parametrize("declaration, field_name", [
    ("items: list = dataclasses.field(default_factory=list)", "items"),
    ("_: dataclasses.KW_ONLY\n    late: int = 0", "late"),
    ("hidden: int = dataclasses.field(default=0, init=False)", "hidden"),
    ("seed: dataclasses.InitVar[int] = 0", "seed"),
])
def test_a_field_feature_without_init_code_is_refused(declaration, field_name):
    namespace = {"dataclasses": dataclasses, "value_class": diagnostics.value_class}
    source = f"@value_class\nclass Refused:\n    name: str\n    {declaration}\n"
    with pytest.raises(TypeError, match=f"^Refused\\.{field_name}: value_class "):
        exec(source, namespace)


def test_a_class_variable_is_not_a_field():
    @diagnostics.value_class
    class Counted:
        limit: typing.ClassVar[int] = 3
        name: str

    assert Counted("a") == Counted("a") and Counted.limit == 3
    assert str(inspect.signature(Counted)) == "(name: str) -> None"
    assert Counted.__doc__ == "Counted(name: str)"


def test_signatures_and_docstrings_are_pinned():
    # A class without a docstring gets one naming its signature.
    rows = sorted((cls.__qualname__, str(inspect.signature(cls)), cls.__doc__)
                  for cls in _value_classes())
    assert len(rows) == 34
    unspecified = "<{0}.UNSPECIFIED: 'unspecified'>"
    sender = ", ".join([
        f"relation: 'Relation' = {unspecified.format('Relation')}",
        f"location: 'Location' = {unspecified.format('Location')}",
        f"data_location: 'Location' = {unspecified.format('Location')}",
        f"generates_cover: 'Tristate' = {unspecified.format('Tristate')}",
        "text: 'str | None' = None"])
    assert str(inspect.signature(model.SenderProcess)) == f"({sender}) -> None"
    assert model.SenderProcess.__doc__ == f"SenderProcess({sender})"
    method = ", ".join([
        "name: 'str'", "pattern: 'PatternAssignment'", "carrier: 'CarrierRequirements'",
        "sender: 'SenderProcess'", "receiver: 'ReceiverProcess'",
        "channel: 'ChannelProperties'", "source: 'str | None' = None",
        "year: 'int | None' = None", "scenario: 'ApplicationScenario | None' = None",
        "control_protocol: 'ControlProtocol | None' = None",
        "countermeasures: 'tuple[CountermeasureEntry, ...]' = ()",
        "warden: 'WardenProfile | None' = None", "location: 'object | None' = None"])
    assert str(inspect.signature(model.MethodDescription)) == f"({method}) -> None"
    assert model.MethodDescription.__doc__ == f"MethodDescription({method})"
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "9294e11c9d2203c560b765792bb014d29fa8ac356a79618d8420d7f8a36fffc8")


def _metadata_row(cls):
    """What ``dataclasses`` reports of ``cls``: each field's settings, the
    class's parameters and match arguments, and whether it is a dataclass."""
    params = cls.__dataclass_params__
    instance = object.__new__(cls)
    return (
        cls.__module__, cls.__qualname__,
        [(f.name, f.type, "MISSING" if f.default is dataclasses.MISSING else repr(f.default),
          f.default_factory is not dataclasses.MISSING, f.init, f.repr, f.hash, f.compare,
          f.kw_only, dict(f.metadata)) for f in dataclasses.fields(cls)],
        [(name, getattr(params, name))
         for name in ("init", "repr", "eq", "order", "unsafe_hash", "frozen")],
        cls.__match_args__,
        dataclasses.is_dataclass(cls), dataclasses.is_dataclass(instance),
    )


def test_dataclass_metadata_is_pinned():
    # dataclasses.fields, replace and asdict, and perfbench's canonical(),
    # read this metadata, however value_class makes it.
    rows = sorted(_metadata_row(cls) for cls in _value_classes())
    assert len(rows) == 34
    assert sum(len(row[2]) for row in rows) == 108
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "bf532a89227c7403c3a79cb18e641253bcfaced91e7e316945dbc9eb7412e371")
