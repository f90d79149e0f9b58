"""Corpus analytics: completeness, coverage statistics, pattern histogram,
combined-evaluation groups, within-publication inconsistencies and
comparison matrices.

Every aggregate folds over coverage rows: ``model.coverage`` reads a
method's blocks once into its six (presence, group) pairs, and each
public function computes one row per method and derives its result from
those rows alone. Ratios are exact rationals and are rendered at one
decimal percent; "covered" means fully or partially present. Aggregation
is order independent, so results are deterministic for a given corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .diagnostics import Diagnostic
from .model import (
    CoverageRow,
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


_PRESENCE_CELL = {Presence.FULL: "Yes", Presence.PARTIAL: "Par", Presence.ABSENT: "No"}

#: Extra comparison-matrix columns beyond the six tracked attributes.
RELATION_COLUMN = "relation"
DIRECTNESS_COLUMN = "directness"

MATRIX_COLUMNS = tuple(a.key for a in TrackedAttribute) + (
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


def completeness(d: MethodDescription) -> CoverageVector:
    """Coverage of the six tracked attributes; aggregate maps full to 1,
    partial to 1/2, absent to 0 and averages over the six."""
    row = coverage(d)
    # Presence values are 0, 1 and 2, so their sum is 2*full + partial.
    total = sum(presence for presence, _ in row)
    return CoverageVector(Fraction(total, 2 * len(row)))


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
    tallies = [[0, 0, 0] for _ in TrackedAttribute]  # absent, partial, full
    for row in rows:
        for tally, (presence, _) in zip(tallies, row):
            tally[presence] += 1
    return {attr: AttributeCounts(full, partial, absent)
            for attr, (absent, partial, full) in zip(TrackedAttribute, tallies)}


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
    raw: dict[PatternPath, int] = {}
    diagnostics: list[Diagnostic] = []
    for m in methods:
        path = m.pattern.path
        if path.unassigned:
            unassigned += 1
            continue
        if path not in raw and (unresolved := unresolved_path(catalog, path)):
            diagnostics.append(Diagnostic(*unresolved, location=m.location,
                                          method_name=m.name))
        raw[path] = raw.get(path, 0) + 1
    counts: dict[PatternPath, int] = {}
    for leaf in list_leaves(catalog):
        if leaf in raw:
            counts[leaf] = raw.pop(leaf)
    for path in sorted(raw, key=lambda p: p.text):
        counts[path] = raw[path]
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
    carriers: dict[tuple[str | None, str], dict[TrackedAttribute, set[str]]] = {}
    members: dict[tuple[str | None, str], list[str]] = {}
    for m in methods:
        for attr, (_, shared) in zip(TrackedAttribute, coverage(m)):
            if shared is None:
                continue
            key = (m.source, shared.label)
            carriers.setdefault(key, {}).setdefault(attr, set()).add(m.name)
            group = members.setdefault(key, [])
            if m.name not in group:
                group.append(m.name)
    rows = []
    for key, by_attr in carriers.items():
        source, label = key
        shared_attrs = tuple(
            attr for attr in TrackedAttribute if len(by_attr.get(attr, ())) >= 2
        )
        rows.append(
            CombinedGroup(
                source=source,
                label=label,
                members=tuple(members[key]),
                attributes=shared_attrs,
                flagged=len(members[key]) < 2,
            )
        )
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
        columns = zip(*(coverage(m) for m in group))
        for attr, column in zip(TrackedAttribute, columns):
            presences = tuple((m.name, p) for m, (p, _) in zip(group, column))
            if len({p for _, p in presences}) > 1:
                rows.append(InconsistencyRow(source, attr, presences))
    return rows


def _matrix_cell(method: MethodDescription, row: CoverageRow, index: int) -> str:
    # ``index`` is the column's position in MATRIX_COLUMNS; the first six
    # are the tracked attributes, in coverage-row order.
    if index < len(row):
        presence, shared = row[index]
        cell = _PRESENCE_CELL[presence]
        return cell + ",combined" if shared is not None else cell
    if MATRIX_COLUMNS[index] == RELATION_COLUMN:
        return "No" if method.sender.relation is Relation.UNSPECIFIED else "Yes"
    directness = method.channel.directness
    if directness.kind is DirectnessKind.UNSPECIFIED:
        return "No"
    if directness.kind is DirectnessKind.INDIRECT and not directness.requirements.strip():
        # Stated indirect but the intermediary is not described:
        # a partially covered directness.
        return "Par"
    return "Yes"


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
    rows = [coverage(m) for m in methods]
    return [[_matrix_cell(m, row, i) for i in indexes] for m, row in zip(methods, rows)]

