"""Corpus analytics: completeness, coverage statistics, pattern histogram,
combined-evaluation groups, within-publication inconsistencies and
comparison matrices.

Every aggregate folds over coverage rows: a method's six (presence,
group) pairs are computed once, when the method is built, and
``model.coverage`` returns them; each public function derives its result
from those rows alone. Ratios are exact rationals and are rendered at one
decimal percent; "covered" means fully or partially present. Aggregation
is order independent, so results are deterministic for a given corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .diagnostics import Diagnostic
from .model import (
    CoverageRow,
    Directness,
    DirectnessKind,
    MethodDescription,
    Presence,
    Relation,
    TrackedAttribute,
    coverage,
)
from .taxonomy import PatternCatalog, PatternPath, list_leaves
from .validate import unresolved_path


class UnknownAttributeError(ValueError):
    pass


_ATTRIBUTES = tuple(TrackedAttribute)

#: A tracked attribute's matrix cell, indexed by presence, then by whether
#: it carries a combined-description group.
_PRESENCE_CELLS = tuple((cell, cell + ",combined") for cell in ("No", "Par", "Yes"))

#: Extra comparison-matrix columns beyond the six tracked attributes.
RELATION_COLUMN = "relation"
DIRECTNESS_COLUMN = "directness"

MATRIX_COLUMNS = tuple(a.key for a in _ATTRIBUTES) + (
    RELATION_COLUMN,
    DIRECTNESS_COLUMN,
)


def format_percent(numerator: int, denominator: int) -> str:
    """Exact one-decimal percent, e.g. 104/131 -> "79.4"; "n/a" when undefined."""
    if denominator == 0:
        return "n/a"
    # Integer round-half-up on the per-mille value keeps this exact.
    per_mille = (numerator * 2000 + denominator) // (2 * denominator)
    return f"{per_mille // 10}.{per_mille % 10}"


@dataclass(frozen=True)
class CoverageVector:
    """The mean completeness score of one description."""

    aggregate: Fraction


#: Every possible score, indexed by the sum of a row's presences.
_SCORES = tuple(CoverageVector(Fraction(total, 2 * len(_ATTRIBUTES)))
                for total in range(2 * len(_ATTRIBUTES) + 1))


def completeness(d: MethodDescription) -> CoverageVector:
    """Coverage of the six tracked attributes; aggregate maps full to 1,
    partial to 1/2, absent to 0 and averages over the six."""
    # Presence values are 0, 1 and 2, so their sum is 2*full + partial.
    return _SCORES[sum([presence for presence, _ in coverage(d)])]


@dataclass(frozen=True)
class AttributeCounts:
    full: int = 0
    partial: int = 0
    absent: int = 0

    @property
    def total(self) -> int:
        return self.full + self.partial + self.absent

    @property
    def covered(self) -> int:
        return self.full + self.partial

    @property
    def covered_ratio(self) -> Fraction | None:
        if self.total == 0:
            return None
        return Fraction(self.covered, self.total)

    def covered_percent(self) -> str:
        return format_percent(self.covered, self.total)


def _count_attributes(rows: list[CoverageRow]) -> dict[TrackedAttribute, AttributeCounts]:
    # An empty corpus has no columns, so every attribute starts at zero.
    counts = dict.fromkeys(_ATTRIBUTES, AttributeCounts())
    for attr, column in zip(_ATTRIBUTES, zip(*rows)):
        presences = [presence for presence, _ in column]
        counts[attr] = AttributeCounts(presences.count(Presence.FULL),
                                       presences.count(Presence.PARTIAL),
                                       presences.count(Presence.ABSENT))
    return counts


@dataclass(frozen=True)
class YearStats:
    total: int
    attributes: dict[TrackedAttribute, AttributeCounts]


def _by_year(
    methods: list[MethodDescription], rows: list[CoverageRow]
) -> dict[int | None, YearStats]:
    """Attribute counts per publication year, years ascending; methods
    without a year are grouped under None ("unknown"), listed last."""
    buckets: dict[int | None, list[CoverageRow]] = {}
    for m, row in zip(methods, rows):
        buckets.setdefault(m.year, []).append(row)
    years: list[int | None] = sorted(y for y in buckets if y is not None)
    if None in buckets:
        years.append(None)
    return {year: YearStats(len(buckets[year]), _count_attributes(buckets[year]))
            for year in years}


def pattern_histogram(
    methods: list[MethodDescription], catalog: PatternCatalog
) -> tuple[dict[PatternPath, int], int, list[Diagnostic]]:
    """Occurrences per stated pattern path, plus the unassigned count.

    Counts are keyed in catalog depth-first leaf order, followed by any
    stated paths that do not resolve to a leaf (each of those also yields
    an E110/E111 diagnostic, located at the first method that names it).
    Leaf counts plus the unassigned count always add up to the corpus size.
    """
    unassigned = 0
    # Keyed by elements, which identify a path once unassigned ones are
    # out, and hash without a call into the PatternPath dataclass.
    raw: dict[tuple[str, ...], int] = {}
    stated: dict[tuple[str, ...], PatternPath] = {}
    diagnostics: list[Diagnostic] = []
    for m in methods:
        path = m.pattern.path
        if path.unassigned:
            unassigned += 1
            continue
        elements = path.elements
        if elements in raw:
            raw[elements] += 1
            continue
        raw[elements] = 1
        stated[elements] = path
        if unresolved := unresolved_path(catalog, path):
            diagnostics.append(Diagnostic(*unresolved, location=m.location,
                                          method_name=m.name))
    counts: dict[PatternPath, int] = {}
    for leaf in list_leaves(catalog):
        if leaf.elements in raw:
            counts[leaf] = raw.pop(leaf.elements)
    for elements in sorted(raw, key=lambda e: stated[e].text):
        counts[stated[elements]] = raw[elements]
    return counts, unassigned, diagnostics


@dataclass(frozen=True)
class CorpusStats:
    total: int
    attributes: dict[TrackedAttribute, AttributeCounts]
    by_year: dict[int | None, YearStats]
    histogram: dict[PatternPath, int]
    unassigned: int
    diagnostics: tuple[Diagnostic, ...] = field(default=(), compare=False)


def corpus_stats(methods: list[MethodDescription], catalog: PatternCatalog) -> CorpusStats:
    """Corpus-level coverage counts, per-year table and pattern histogram."""
    histogram, unassigned, diagnostics = pattern_histogram(methods, catalog)
    rows = [coverage(m) for m in methods]
    return CorpusStats(
        total=len(methods),
        attributes=_count_attributes(rows),
        by_year=_by_year(methods, rows),
        histogram=histogram,
        unassigned=unassigned,
        diagnostics=tuple(diagnostics),
    )


@dataclass(frozen=True)
class CombinedGroup:
    """Methods of one publication that share a combined-description label."""

    source: str | None
    label: str
    members: tuple[str, ...]
    attributes: tuple[TrackedAttribute, ...]
    flagged: bool  # label used by a single method only


def combined_groups(methods: list[MethodDescription]) -> list[CombinedGroup]:
    """One row per (source, label), listing the attributes that at least two
    methods of that source describe jointly under the label."""
    # Per (source, label): each member's name, in first-seen order, and the
    # attributes it describes under the label.
    groups: dict[tuple[str | None, str], dict[str, set[TrackedAttribute]]] = {}
    for m in methods:
        for attr, (_, shared) in zip(_ATTRIBUTES, coverage(m)):
            if shared is not None:
                groups.setdefault((m.source, shared.label), {}).setdefault(
                    m.name, set()).add(attr)
    rows = []
    for (source, label), members in groups.items():
        carried = [attr for attrs in members.values() for attr in attrs]
        rows.append(CombinedGroup(
            source=source,
            label=label,
            members=tuple(members),
            attributes=tuple(attr for attr in _ATTRIBUTES if carried.count(attr) >= 2),
            flagged=len(members) < 2,
        ))
    return rows


@dataclass(frozen=True)
class InconsistencyRow:
    """An attribute whose coverage differs between methods of one publication."""

    source: str
    attribute: TrackedAttribute
    presences: tuple[tuple[str, Presence], ...]  # (method name, presence)


def inconsistency_report(methods: list[MethodDescription]) -> list[InconsistencyRow]:
    """For every source with several methods, the attributes described
    inconsistently across them."""
    by_source: dict[str, list[MethodDescription]] = {}
    for m in methods:
        if m.source is not None:
            by_source.setdefault(m.source, []).append(m)
    rows = []
    for source, group in by_source.items():
        if len(group) < 2:
            continue
        names = [m.name for m in group]
        for attr, column in zip(_ATTRIBUTES, zip(*[coverage(m) for m in group])):
            presences = [presence for presence, _ in column]
            if presences.count(presences[0]) != len(presences):
                rows.append(InconsistencyRow(source, attr, tuple(zip(names, presences))))
    return rows


def _directness_cell(directness: Directness) -> str:
    if directness.kind is DirectnessKind.UNSPECIFIED:
        return "No"
    if directness.kind is DirectnessKind.INDIRECT and not directness.requirements.strip():
        # Stated indirect but the intermediary is not described:
        # a partially covered directness.
        return "Par"
    return "Yes"


def _matrix_row(method: MethodDescription) -> list[str]:
    """Every cell of one method, in MATRIX_COLUMNS order."""
    cells = [_PRESENCE_CELLS[presence][shared is not None]
             for presence, shared in coverage(method)]
    cells.append("No" if method.sender.relation is Relation.UNSPECIFIED else "Yes")
    cells.append(_directness_cell(method.channel.directness))
    return cells


def comparison_matrix(
    methods: list[MethodDescription], attributes: list[str]
) -> list[list[str]]:
    """Yes/Par/No cells (plus ",combined" suffixes) per method and attribute.

    Rows follow the input method order. Attributes are the six tracked
    keys plus "relation" and "directness"; anything else raises
    UnknownAttributeError.
    """
    for column in attributes:
        if column not in MATRIX_COLUMNS:
            raise UnknownAttributeError(
                f"unknown attribute {column!r}; known: {', '.join(MATRIX_COLUMNS)}"
            )
    indexes = [MATRIX_COLUMNS.index(column) for column in attributes]
    return [[cells[i] for i in indexes] for cells in map(_matrix_row, methods)]

