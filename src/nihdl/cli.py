"""Command-line surface: validate, render, tree, stats, compare, assess,
catalog-add.

Reports go to stdout, diagnostics to stderr. Exit status 0 means no
error-severity diagnostics, 1 means error diagnostics were produced, and
2 means a usage or I/O failure: any command that meets an input file it
cannot read (E007) exits 2, whatever else it printed, and so does one
whose reader closes stdout before the report is written. NIHDL_CATALOG
supplies a default catalog path where a command takes --catalog.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections.abc import Iterable
from pathlib import Path

from . import analyze, dsl, model, novelty, store
from .validate import ValidationMode, validate_document
from .diagnostics import Diagnostic, Severity
from .taxonomy import (
    PatternCatalog,
    PatternPath,
    InvalidNameError,
    TaxonomyError,
    render_chain,
    render_tree,
    seed_catalog,
)

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2

RULE_LINE = "-" * 72


class _UsageError(Exception):
    pass


class _Exit(Exception):
    """Ends a command with the exit status in ``args[0]``; the reason is already printed."""


def _print_diagnostics(diags: Iterable[Diagnostic], status: int = EXIT_OK) -> int:
    """Write diagnostics to stderr; return ``status`` raised to what they
    call for: 2 for a file that cannot be read (E007), 1 for any other error."""
    for diag in diags:
        print(diag.render(), file=sys.stderr)
        if diag.severity is Severity.ERROR:
            status = max(status, EXIT_USAGE if diag.code == "E007" else EXIT_DIAGNOSTICS)
    return status


def _read_document(path: str) -> dsl.Document:
    """Parse one description file, or print why not and exit."""
    document, diags = store.read_description_file(path)
    if document is None:
        raise _Exit(_print_diagnostics(diags))
    return document


def _catalog_path(args) -> str | None:
    return args.catalog or os.environ.get("NIHDL_CATALOG")


def _catalog(args, required: str | None = None, status: int = EXIT_OK) -> PatternCatalog:
    """The catalog that --catalog or NIHDL_CATALOG names. Without one, the
    seed catalog when ``required`` is None, else a usage error ending in
    ``required``. ``status`` is what the command has printed so far."""
    path = _catalog_path(args)
    if path is None:
        if required is None:
            return seed_catalog()
        raise _UsageError(f"--catalog (or NIHDL_CATALOG) is required{required}")
    return _checked_catalog(path, *store.read_catalog_file(path), status)


def _checked_catalog(path, catalog, diags, status: int = EXIT_OK) -> PatternCatalog:
    """``catalog``; else a usage error when the file cannot be read (E007),
    or the end of the command after the diagnostics of why it did not parse."""
    if catalog is None:
        if any(d.code == "E007" for d in diags):
            raise _UsageError(f"cannot read catalog file {path}")
        raise _Exit(_print_diagnostics(diags, status))
    return catalog


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    documents = []
    status = EXIT_OK
    for file_name in args.files:
        document, diags = store.read_description_file(file_name)
        status = _print_diagnostics(diags, status)
        if document is not None:
            documents.append(document)

    # Unassigned methods resolve nothing, so the seed catalog serves them.
    assigned = any(not m.pattern.path.unassigned for doc in documents for m in doc.methods)
    catalog = _catalog(args, " to resolve pattern paths" if assigned else None, status)
    mode = ValidationMode.STRICT if args.strict else ValidationMode.SURVEY
    for document in documents:
        status = _print_diagnostics(validate_document(document, catalog, mode), status)
    return status


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

def _binding_text(binding: model.CarrierBinding) -> str:
    kind = binding.kind
    if kind is model.BindingKind.SINGLE_PROTOCOL:
        return f"single protocol {binding.names[0]}"
    if kind is model.BindingKind.PROTOCOL_SET:
        return "protocols " + ", ".join(binding.names)
    if kind is model.BindingKind.FEATURE_BASED:
        return "protocol features: " + ", ".join(binding.names)
    return kind.value


def _metric_lines(label: str, metric: model.ChannelCharacteristic | None) -> list[str]:
    if metric is None:
        return [f"{label}: (block missing)"]
    head = f"{label}: {metric.presence.name.lower()}"
    if metric.value is not None:
        head += f" (value: {metric.value})"
    if metric.refers_to_countermeasures:
        head += " [see countermeasures]"
    if metric.shared is not None:
        head += f" [combined: {metric.shared.label}]"
    lines = [head]
    if metric.text is not None:
        lines.append(f"  {metric.text}")
    return lines


def build_report(m: model.MethodDescription) -> str:
    lines = [f"Method: {m.name}"]
    if m.source is not None:
        lines.append(f"Source: {m.source}")
    if m.year is not None:
        lines.append(f"Year: {m.year}")

    def section(title: str) -> None:
        lines.extend(["", title, "-" * len(title)])

    section("Hiding Pattern")
    if m.pattern.path.unassigned:
        lines.append("Unassigned.")
    else:
        lines.append(render_chain(m.pattern.path))
    if m.pattern.justifications:
        lines.append("")
        for j in m.pattern.justifications:
            lines.append(f"  {j.element}: {j.rationale}")

    section("Application Scenario")
    scenario = m.scenario
    if scenario is None:
        lines.append("(not described)")
    else:
        lines.append(f"Status: {scenario.presence.name.lower()}")
        if scenario.purpose is not None:
            lines.append(f"Purpose: {scenario.purpose.value}")
        if scenario.shared is not None:
            lines.append(f"Combined with: {scenario.shared.label}")
        if scenario.text is not None:
            lines.append(scenario.text)

    section("Properties of the Carrier")
    lines.append(f"Status: {m.carrier.presence.name.lower()}")
    lines.append(f"Binding: {_binding_text(m.carrier.binding)}")
    for condition in m.carrier.conditions:
        lines.append(f"  - {condition}")
    if m.carrier.shared is not None:
        lines.append(f"Combined with: {m.carrier.shared.label}")
    if m.carrier.text is not None:
        lines.append(m.carrier.text)

    section("Sender-side Process")
    lines.append(f"Relation: {m.sender.relation.value}")
    lines.append(f"Sender location: {m.sender.location.value}")
    lines.append(f"Covert data location: {m.sender.data_location.value}")
    lines.append(f"Generates own cover traffic: {m.sender.generates_cover.value}")
    if m.sender.text is not None:
        lines.append(m.sender.text)

    section("Receiver-side Process")
    lines.append(f"Receiver location: {m.receiver.location.value}")
    if m.receiver.text is not None:
        lines.append(m.receiver.text)

    section("Covert Channel Properties")
    names = [s.value for s in model.ChannelScenario if s in m.channel.scenarios]
    lines.append(f"Scenario: {', '.join(names)}")
    directness = m.channel.directness
    if directness.kind is model.DirectnessKind.INDIRECT:
        lines.append(f"Directness: indirect ({directness.requirements})")
    else:
        lines.append(f"Directness: {directness.kind.value}")
    lines.extend(_metric_lines("Bandwidth", m.channel.bandwidth))
    lines.extend(_metric_lines("Undetectability", m.channel.undetectability))
    lines.extend(_metric_lines("Robustness", m.channel.robustness))
    lines.extend(_metric_lines("Cost", m.channel.cost))

    section("Control Protocol")
    control = m.control_protocol
    if control is None:
        lines.append("(not described)")
    else:
        lines.append(f"Status: {control.presence.name.lower()}")
        features = [f.value for f in model.ControlFeature if f in control.features]
        if features:
            lines.append(f"Features: {', '.join(features)}")
        if control.text is not None:
            lines.append(control.text)

    section("Countermeasures")
    if not m.countermeasures:
        lines.append("(no entries)")
    for entry in m.countermeasures:
        head = f"- {entry.kind.value}: {entry.applicability.value}"
        head += ", evaluated" if entry.evaluated else ", not evaluated"
        lines.append(head)
        if entry.text is not None:
            lines.append(f"    {entry.text}")
        if entry.limitations is not None:
            lines.append(f"    evaluation limitations: {entry.limitations}")
    if m.warden is not None:
        lines.append(
            f"Warden: {m.warden.placement.value} placement, "
            f"{m.warden.state.value}, {m.warden.activity.value}"
        )
    return "\n".join(lines)


def cmd_render(args) -> int:
    document = _read_document(args.file)
    methods = list(document.methods)
    if args.method is not None:
        methods = [m for m in methods if m.name == args.method]
        if not methods:
            print(f"unknown method: {args.method}", file=sys.stderr)
            return EXIT_DIAGNOSTICS
    reports = [build_report(model.normalize(m)) for m in methods]
    print(("\n" + RULE_LINE + "\n").join(reports))
    return EXIT_OK


# ---------------------------------------------------------------------------
# tree
# ---------------------------------------------------------------------------

def cmd_tree(args) -> int:
    catalog = _catalog(args)
    if catalog.is_empty:
        print("(empty catalog)", file=sys.stderr)
        return EXIT_OK
    print(render_tree(catalog))
    return EXIT_OK


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def _align(rows: list[list[str]], right: set[int]) -> list[str]:
    """Space-aligned text rows; columns in ``right`` are right-justified."""
    widths = [max(len(cell) for cell in column) for column in zip(*rows)]
    lines = []
    for row in rows:
        cells = [
            cell.rjust(width) if i in right else cell.ljust(width)
            for i, (cell, width) in enumerate(zip(row, widths))
        ]
        lines.append("  ".join(cells).rstrip())
    return lines


def _print_sections(fmt: str, sections: list[tuple[str, list[list[str]], set[int]]],
                    head: str | None = None) -> None:
    """Print (title, rows, right-aligned columns) sections: as csv tables
    separated by blank lines, or as aligned text under their titles, after
    ``head``."""
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        for i, (_, rows, _) in enumerate(sections):
            if i:
                sys.stdout.write("\n")
            writer.writerows(rows)
        return
    blocks = [] if head is None else [head]
    for title, rows, right in sections:
        table = "\n".join(_align(rows, right))
        blocks.append(f"{title}:\n{table}" if title else table)
    print("\n\n".join(blocks))


def _attribute_counts(counts: dict[model.TrackedAttribute, analyze.AttributeCounts]) -> dict:
    """Counts per tracked attribute; ``covered_pct`` is null when no method counts."""
    return {
        attr.key: {
            "full": c.full,
            "partial": c.partial,
            "absent": c.absent,
            "covered_pct": c.covered_percent() if c.total else None,
        }
        for attr, c in counts.items()
    }


def cmd_stats(args) -> int:
    try:
        corpus = store.open_corpus(args.corpus)
        catalog = _checked_catalog(corpus.catalog_file, *store.load_catalog(corpus))
    except store.StoreError as exc:
        raise _UsageError(str(exc)) from None
    documents, diags = store.load_all(corpus)
    status = _print_diagnostics(diags)
    methods = [m for doc in documents for m in doc.methods]
    stats = analyze.corpus_stats(methods, catalog)
    status = _print_diagnostics(stats.diagnostics, status)

    # The report is the JSON document; table and csv print sections of it.
    report = {
        "total": stats.total,
        "attributes": _attribute_counts(stats.attributes),
        "by_year": {
            "unknown" if year is None else str(year): {
                "total": year_stats.total,
                "attributes": _attribute_counts(year_stats.attributes),
            }
            for year, year_stats in stats.by_year.items()
        },
        "histogram": {path.text: count for path, count in stats.histogram.items()},
        "unassigned": stats.unassigned,
    }
    if args.combined:
        report["combined"] = [
            {
                "source": g.source,
                "label": g.label,
                "methods": list(g.members),
                "attributes": [a.key for a in g.attributes],
                "single_method_label": g.flagged,
            }
            for g in analyze.combined_groups(methods)
        ]
    if args.inconsistent:
        report["inconsistencies"] = [
            {
                "source": row.source,
                "attribute": row.attribute.key,
                "values": [[name, p.name.lower()] for name, p in row.presences],
            }
            for row in analyze.inconsistency_report(methods)
        ]
    if args.format == "json":
        print(json.dumps(report, indent=2))
        return status

    suffix = "" if args.format == "csv" else "%"

    def covered(counts: dict) -> str:
        return "n/a" if counts["covered_pct"] is None else counts["covered_pct"] + suffix

    keys = list(report["attributes"])
    sections = [("", [["attribute", "full", "partial", "absent", "covered"]] + [
        [key, str(c["full"]), str(c["partial"]), str(c["absent"]), covered(c)]
        for key, c in report["attributes"].items()
    ], {1, 2, 3, 4})]
    if args.by_year:
        sections.append(("by year", [["year", "methods", *keys]] + [
            [year, str(y["total"]), *map(covered, y["attributes"].values())]
            for year, y in report["by_year"].items()
        ], set(range(1, len(keys) + 2))))
    if args.patterns:
        sections.append(("patterns", [["pattern", "count"]] + [
            [path, str(count)] for path, count in report["histogram"].items()
        ] + [["unassigned", str(report["unassigned"])]], {1}))
    if args.combined:
        sections.append(("combined", [["source", "label", "methods", "attributes", "note"]] + [
            [g["source"] or "-", g["label"], ", ".join(g["methods"]),
             ", ".join(g["attributes"]) or "-",
             "single-method label" if g["single_method_label"] else ""]
            for g in report["combined"]
        ], set()))
    if args.inconsistent:
        sections.append(("inconsistencies", [["source", "attribute", "values"]] + [
            [row["source"], row["attribute"],
             ", ".join(f"{name}={presence}" for name, presence in row["values"])]
            for row in report["inconsistencies"]
        ], set()))
    _print_sections(args.format, sections, f"methods: {report['total']}")
    return status


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(args) -> int:
    methods: list[model.MethodDescription] = []
    for file_name in args.files:
        methods.extend(_read_document(file_name).methods)
    attributes = [a.strip() for a in args.attributes.split(",")]
    try:
        matrix = analyze.comparison_matrix(methods, attributes)
    except analyze.UnknownAttributeError as exc:
        raise _UsageError(str(exc)) from None
    rows = [["method"] + attributes]
    for method, cells in zip(methods, matrix):
        rows.append([method.name] + cells)
    _print_sections(args.format, [("", rows, set())])
    return EXIT_OK


# ---------------------------------------------------------------------------
# assess / catalog-add
# ---------------------------------------------------------------------------

def cmd_assess(args) -> int:
    catalog = _catalog(args, " for assessment")
    document = _read_document(args.file)
    for method in document.methods:
        print(novelty.assess(method, catalog).render())
    return EXIT_OK


def cmd_catalog_add(args) -> int:
    """The `added` line is printed before the write, so a closed stdout exits 2
    with the catalog unchanged; a failed write then exits 2 after that line."""
    catalog = _catalog(args, "")
    try:
        justification = Path(args.justification).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read justification file: {exc}") from None
    if not justification.strip():
        raise _UsageError("the justification file is empty")
    try:
        parent = PatternPath.from_text(args.parent)
    except InvalidNameError as exc:
        raise _UsageError(f"malformed --parent path: {exc}") from None
    try:
        candidate = novelty.BigCCandidate(
            parent=parent,
            proposed_name=args.name,
            justification=justification.strip(),
        )
        extended = novelty.accept_big_c(catalog, candidate)
    except InvalidNameError as exc:
        raise _UsageError(str(exc)) from None
    except TaxonomyError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    path = _catalog_path(args)
    print(f'added "{args.name}" under {parent.text}', flush=True)
    try:
        store.atomic_write_text(Path(path), dsl.serialize_catalog(extended))
    except OSError as exc:
        raise _UsageError(f"cannot write catalog file {path}: {exc.strerror}") from None
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nihdl",
        description="Toolkit for the network information hiding description language",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate description files")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("--catalog", help="pattern catalog file (.nihc)")
    p.add_argument("--strict", action="store_true",
                   help="authoring mode: unspecified values become errors")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("render", help="print a human-readable report")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--method", help="render only the named method")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("tree", help="print a catalog as an ASCII tree")
    p.add_argument("--catalog", help="pattern catalog file (default: built-in seed)")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("stats", help="corpus coverage statistics")
    p.add_argument("corpus", metavar="CORPUS_DIR")
    p.add_argument("--by-year", action="store_true", dest="by_year")
    p.add_argument("--patterns", action="store_true")
    p.add_argument("--combined", action="store_true",
                   help="report combined-description groups")
    p.add_argument("--inconsistent", action="store_true",
                   help="report within-publication inconsistencies")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("compare", help="attribute comparison matrix")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument(
        "--attributes",
        default=",".join(a.key for a in model.TrackedAttribute),
        help="comma-separated attribute list",
    )
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("assess", help="novelty verdict per method")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--catalog", help="pattern catalog file (.nihc)")
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("catalog-add", help="accept a new pattern into a catalog")
    p.add_argument("--catalog", help="pattern catalog file to rewrite")
    p.add_argument("--parent", required=True,
                   help='parent path, e.g. "Network Covert Timing Channels"')
    p.add_argument("--name", required=True, help="name of the new pattern node")
    p.add_argument("--justification", required=True, metavar="FILE",
                   help="file holding the new-pattern justification")
    p.set_defaults(func=cmd_catalog_add)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        try:
            return args.func(args)
        except _UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except _Exit as exc:
            return exc.args[0]
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # Python's "Note on SIGPIPE": on devnull, the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
