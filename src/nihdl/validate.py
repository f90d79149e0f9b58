"""Rule-based validation of descriptions against a pattern catalog.

Two modes exist. Survey mode accepts the gaps that encodings of older
publications inevitably have (unspecified enum values are warnings);
Strict mode serves authors of new descriptions and escalates those gaps
to errors. Diagnostics are deterministic and sorted by rule code, then
location, then method name.

Rules:

    E006  catalog defines no patterns (classification impossible)
    E110  pattern path not found in the catalog
    E111  pattern path stops at an internal node instead of a leaf
    E112  unassigned path without a justification
    E120  indirect channel with empty intermediary requirements
    E130  one of the four channel metric blocks is missing
    E140  no elimination / no detection countermeasure entry
    E141  no limitation entry and no applicable elimination entry
    E142  not-applicable entry without a justification text
    E150  duplicate method names within a document (at the first one)
    E210  (strict) unspecified enum value
    E211  (strict) application-scenario block missing
    W200  a path element has no justify entry
    W201  special-purpose scenario without descriptive text
    W202  evaluated countermeasure without an evaluation-limitations note
    W203  undetectability absent and no detection entry to refer to
    W210  unspecified enum value
    I300  bandwidth value given while robustness is absent
"""

from __future__ import annotations

from enum import Enum

from . import model
from .diagnostics import Diagnostic, sort_key
from .dsl import Document, _unspecified_keys
from .taxonomy import PatternCatalog, PatternPath, ResolutionKind, resolve_path


def unresolved_path(catalog: PatternCatalog, path: PatternPath) -> tuple[str, str] | None:
    """The E110 or E111 code and message for a stated path that does not end
    at a catalog leaf, or None when it does. The message ends in ``: `` and
    the full path."""
    kind = resolve_path(catalog, path).kind
    if kind is ResolutionKind.NOT_FOUND:
        return "E110", f"pattern path not found in catalog: {path.text}"
    if kind is ResolutionKind.INTERNAL:
        return "E111", f"pattern path is not a leaf: {path.text}"
    return None


class ValidationMode(Enum):
    SURVEY = "survey"
    STRICT = "strict"


def validate(
    d: model.MethodDescription,
    catalog: PatternCatalog,
    mode: ValidationMode = ValidationMode.SURVEY,
) -> list[Diagnostic]:
    """All rule-table findings for one description, deterministically ordered.

    The catalog must have at least one root; an empty catalog cannot
    classify anything (validate_document reports that case as E006).
    """
    if catalog.is_empty:
        raise ValueError("catalog has no roots; cannot classify against it")
    diags: list[Diagnostic] = []

    def report(code: str, message: str) -> None:
        diags.append(Diagnostic(code, message, d.location, d.name))  # type: ignore[arg-type]

    path = d.pattern.path
    justified = {j.element for j in d.pattern.justifications if j.rationale.strip()}
    if path.unassigned:
        if not justified:
            report("E112", "unassigned pattern requires a justification")
    else:
        if unresolved := unresolved_path(catalog, path):
            report(*unresolved)
        for element in path.elements:
            if element not in justified:
                report("W200", f"path element {element!r} has no justify entry")

    if (
        d.channel.directness.kind is model.DirectnessKind.INDIRECT
        and not d.channel.directness.requirements.strip()
    ):
        report("E120", "indirect channel must describe intermediary requirements")

    for name, metric in d.channel.metrics().items():
        if metric is None:
            report("E130", f"channel metric block {name!r} is missing")

    kinds = {entry.kind for entry in d.countermeasures}
    for kind in (model.CountermeasureKind.ELIMINATION, model.CountermeasureKind.DETECTION):
        if kind not in kinds:
            report("E140", f"no {kind.value} countermeasure entry "
                           "(applicable or not-applicable)")
    if model.CountermeasureKind.LIMITATION not in kinds and not any(
        e.kind is model.CountermeasureKind.ELIMINATION
        and e.applicability is model.Applicability.APPLICABLE
        for e in d.countermeasures
    ):
        report("E141", "no limitation entry and the channel has no applicable elimination")
    for entry in d.countermeasures:
        if entry.applicability is model.Applicability.NOT_APPLICABLE and not (
            entry.text or ""
        ).strip():
            report("E142", f"not-applicable {entry.kind.value} entry needs a justification")
        if entry.evaluated and not (entry.limitations or "").strip():
            report("W202", f"evaluated {entry.kind.value} entry should note "
                           "evaluation limitations")

    if d.scenario is None:
        if mode is ValidationMode.STRICT:
            report("E211", "application-scenario block is required in strict mode")
    elif (
        d.scenario.purpose is not None
        and d.scenario.purpose is not model.Purpose.GENERAL_PURPOSE
        and not (d.scenario.text or "").strip()
    ):
        report("W201", f"{d.scenario.purpose.value} scenario should be described in detail")

    undetectability = d.channel.undetectability
    if (
        undetectability is not None
        and undetectability.presence is model.Presence.ABSENT
        and model.CountermeasureKind.DETECTION not in kinds
    ):
        report("W203", "undetectability is absent and no detection entry covers it")

    unspecified_code = "E210" if mode is ValidationMode.STRICT else "W210"
    for field_name in _unspecified_keys(d):
        report(unspecified_code, f"{field_name} is unspecified")

    bandwidth = d.channel.bandwidth
    robustness = d.channel.robustness
    if (
        bandwidth is not None
        and bandwidth.value is not None
        and robustness is not None
        and robustness.presence is model.Presence.ABSENT
    ):
        report("I300", "bandwidth is quantified but robustness is absent")

    diags.sort(key=sort_key)
    return diags


def validate_document(
    doc: Document,
    catalog: PatternCatalog,
    mode: ValidationMode = ValidationMode.SURVEY,
) -> list[Diagnostic]:
    """Per-method findings plus document-level checks, merged and sorted.

    A catalog without roots is unusable for classification and yields a
    single E006 finding.
    """
    if catalog.is_empty:
        return [
            Diagnostic(
                "E006",
                "catalog defines no patterns; descriptions cannot be classified",
            )
        ]
    diags: list[Diagnostic] = []
    seen: dict[str, list[model.MethodDescription]] = {}
    for method in doc.methods:
        diags.extend(validate(method, catalog, mode))
        seen.setdefault(method.name, []).append(method)
    for name, methods in seen.items():
        if len(methods) > 1:
            diags.append(
                Diagnostic(
                    "E150",
                    f"method name {name!r} appears {len(methods)} times in the document",
                    location=methods[0].location,  # type: ignore[arg-type]
                    method_name=name,
                )
            )
    diags.sort(key=sort_key)
    return diags
