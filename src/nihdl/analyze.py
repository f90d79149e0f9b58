"""Corpus analytics: completeness, coverage statistics, pattern histogram,
combined-evaluation groups, within-publication inconsistencies and
comparison matrices.

Ratios are exact rationals and are rendered at one decimal percent;
"covered" means fully or partially present. Aggregation is order
independent, so results are deterministic for a given corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .diagnostics import Diagnostic
from .model import (
    DirectnessKind,
    MethodDescription,
    Presence,
    Relation,
    SharedGroup,
    TrackedAttribute,
    attribute_presence,
)
from .taxonomy import (
    PatternCatalog,
    PatternPath,
    ResolutionKind,
    list_leaves,
    resolve_path,
)


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
    """Per-attribute presence of one description plus its mean score."""

    presences: dict[TrackedAttribute, tuple[Presence, SharedGroup | None]]
    aggregate: Fraction


def completeness(d: MethodDescription) -> CoverageVector:
    """Coverage of the six tracked attributes; aggregate maps full to 1,
    partial to 1/2, absent to 0 and averages over the six."""
    presences = {attr: attribute_presence(d, attr) for attr in TrackedAttribute}
    total = sum((p.score for p, _ in presences.values()), Fraction(0))
    return CoverageVector(presences=presences, aggregate=total / len(TrackedAttribute))


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


def _count_attributes(methods: list[MethodDescription]) -> dict[TrackedAttribute, AttributeCounts]:
    counts: dict[TrackedAttribute, AttributeCounts] = {}
    for attr in TrackedAttribute:
        full = partial = absent = 0
        for m in methods:
            presence, _ = attribute_presence(m, attr)
            if presence is Presence.FULL:
                full += 1
            elif presence is Presence.PARTIAL:
                partial += 1
            else:
                absent += 1
        counts[attr] = AttributeCounts(full, partial, absent)
    return counts


@dataclass(frozen=True)
class YearStats:
    total: int
    attributes: dict[TrackedAttribute, AttributeCounts]


def stats_by_year(methods: list[MethodDescription]) -> dict[int | None, YearStats]:
    """Attribute counts per publication year, years ascending; methods
    without a year are grouped under None ("unknown"), listed last."""
    buckets: dict[int | None, list[MethodDescription]] = {}
    for m in methods:
        buckets.setdefault(m.year, []).append(m)
    ordered = sorted((y for y in buckets if y is not None))
    result: dict[int | None, YearStats] = {}
    for year in ordered:
        group = buckets[year]
        result[year] = YearStats(total=len(group), attributes=_count_attributes(group))
    if None in buckets:
        group = buckets[None]
        result[None] = YearStats(total=len(group), attributes=_count_attributes(group))
    return result


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
    unresolved: set[PatternPath] = set()
    for m in methods:
        path = m.pattern.path
        if path.unassigned:
            unassigned += 1
            continue
        raw[path] = raw.get(path, 0) + 1
        if path not in unresolved:
            resolution = resolve_path(catalog, path)
            if resolution.kind is ResolutionKind.NOT_FOUND:
                unresolved.add(path)
                diagnostics.append(
                    Diagnostic("E110", f"pattern path not found in catalog: {path.text}",
                               location=m.location, method_name=m.name)
                )
            elif resolution.kind is ResolutionKind.INTERNAL:
                unresolved.add(path)
                diagnostics.append(
                    Diagnostic("E111", f"pattern path is not a leaf: {path.text}",
                               location=m.location, method_name=m.name)
                )
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
    return CorpusStats(
        total=len(methods),
        attributes=_count_attributes(methods),
        by_year=stats_by_year(methods),
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
    carriers: dict[tuple[str | None, str], dict[TrackedAttribute, list[str]]] = {}
    members: dict[tuple[str | None, str], list[str]] = {}
    for m in methods:
        for attr in TrackedAttribute:
            _, shared = attribute_presence(m, attr)
            if shared is None:
                continue
            key = (m.source, shared.label)
            carriers.setdefault(key, {}).setdefault(attr, []).append(m.name)
            group = members.setdefault(key, [])
            if m.name not in group:
                group.append(m.name)
    rows = []
    for key, by_attr in carriers.items():
        source, label = key
        shared_attrs = tuple(
            attr for attr in TrackedAttribute if len(by_attr.get(attr, [])) >= 2
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
        for attr in TrackedAttribute:
            presences = tuple(
                (m.name, attribute_presence(m, attr)[0]) for m in group
            )
            if len({p for _, p in presences}) > 1:
                rows.append(InconsistencyRow(source, attr, presences))
    return rows


def _matrix_cell(method: MethodDescription, column: str) -> str:
    if column == RELATION_COLUMN:
        return "No" if method.sender.relation is Relation.UNSPECIFIED else "Yes"
    if column == DIRECTNESS_COLUMN:
        directness = method.channel.directness
        if directness.kind is DirectnessKind.UNSPECIFIED:
            return "No"
        if directness.kind is DirectnessKind.INDIRECT and not directness.requirements.strip():
            # Stated indirect but the intermediary is not described:
            # a partially covered directness.
            return "Par"
        return "Yes"
    for attr in TrackedAttribute:
        if attr.key == column:
            presence, shared = attribute_presence(method, attr)
            cell = _PRESENCE_CELL[presence]
            return cell + ",combined" if shared is not None else cell
    raise UnknownAttributeError(
        f"unknown attribute {column!r}; known: {', '.join(MATRIX_COLUMNS)}"
    )


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
    return [[_matrix_cell(m, column) for column in attributes] for m in methods]


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def align_table(rows: list[list[str]], right: set[int] = frozenset()) -> list[str]:
    """Space-aligned text rows; columns in ``right`` are right-justified."""
    if not rows:
        return []
    widths = [0] * max(len(r) for r in rows)
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in rows:
        cells = [
            cell.rjust(widths[i]) if i in right else cell.ljust(widths[i])
            for i, cell in enumerate(row)
        ]
        lines.append("  ".join(cells).rstrip())
    return lines


def _pct(counts: AttributeCounts, suffix: str) -> str:
    covered = counts.covered_percent()
    return covered if covered == "n/a" else covered + suffix


def attribute_table_rows(stats: CorpusStats, suffix: str = "%") -> list[list[str]]:
    rows = [["attribute", "full", "partial", "absent", "covered"]]
    for attr in TrackedAttribute:
        counts = stats.attributes[attr]
        rows.append([
            attr.key,
            str(counts.full),
            str(counts.partial),
            str(counts.absent),
            _pct(counts, suffix),
        ])
    return rows


def by_year_table_rows(stats: CorpusStats, suffix: str = "%") -> list[list[str]]:
    rows = [["year", "methods"] + [attr.key for attr in TrackedAttribute]]
    for year, year_stats in stats.by_year.items():
        cells = ["unknown" if year is None else str(year), str(year_stats.total)]
        for attr in TrackedAttribute:
            cells.append(_pct(year_stats.attributes[attr], suffix))
        rows.append(cells)
    return rows


def histogram_table_rows(stats: CorpusStats) -> list[list[str]]:
    rows = [["pattern", "count"]]
    for path, count in stats.histogram.items():
        rows.append([path.text, str(count)])
    rows.append(["unassigned", str(stats.unassigned)])
    return rows


def combined_table_rows(groups: list[CombinedGroup]) -> list[list[str]]:
    rows = [["source", "label", "methods", "attributes", "note"]]
    for group in groups:
        rows.append([
            group.source or "-",
            group.label,
            ", ".join(group.members),
            ", ".join(a.key for a in group.attributes) or "-",
            "single-method label" if group.flagged else "",
        ])
    return rows


def inconsistency_table_rows(report: list[InconsistencyRow]) -> list[list[str]]:
    rows = [["source", "attribute", "values"]]
    for row in report:
        values = ", ".join(f"{name}={p.name.lower()}" for name, p in row.presences)
        rows.append([row.source, row.attribute.key, values])
    return rows


def stats_to_dict(stats: CorpusStats) -> dict:
    """JSON-shaped structure: total, attributes, by_year, histogram, unassigned."""

    def counts_dict(counts: AttributeCounts) -> dict:
        covered = counts.covered_percent()
        return {
            "full": counts.full,
            "partial": counts.partial,
            "absent": counts.absent,
            "covered_pct": None if covered == "n/a" else covered,
        }

    return {
        "total": stats.total,
        "attributes": {
            attr.key: counts_dict(stats.attributes[attr]) for attr in TrackedAttribute
        },
        "by_year": {
            "unknown" if year is None else str(year): {
                "total": year_stats.total,
                "attributes": {
                    attr.key: counts_dict(year_stats.attributes[attr])
                    for attr in TrackedAttribute
                },
            }
            for year, year_stats in stats.by_year.items()
        },
        "histogram": {path.text: count for path, count in stats.histogram.items()},
        "unassigned": stats.unassigned,
    }
