"""The four workloads. Each reaches nihdl only through its public functions
and its command line, and checks every result against the generator's
tallies or against properties the output must have.

A workload has four steps. ``generate`` draws and writes its inputs in a
child process (``generate.py``) and reads back the compact expected values
the checks need, so the measured process holds none of the generator's
data (untimed). ``setup`` imports nihdl afresh and loads what the workload
keeps in memory; it is what ``setup_s`` times. ``prepare`` turns the
expected values into the form the checks use (untimed). ``round`` runs one
whole round of operations through a ``Recorder`` and checks each result
outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import subprocess
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import calibrate
import generate

HERE = Path(__file__).resolve().parent
MATRIX_COLUMNS = generate.TRACKED + ("relation", "directness")
FAILED = object()


class CheckFailed(Exception):
    """The program produced a wrong result."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Recorder:
    """Times operations and counts attempts and failures.

    Every round runs the same operations in the same order, so the k-th
    operation of a round is the same work in every round; ``samples[k]``
    holds its (round, seconds, slowdown) in each round. The machine's speed
    is probed with ``probe_calls`` calls of the calibration kernel just
    before and just after each operation; the operation's slowdown is the
    mean of the two, and its scaled time is its time divided by that. An
    operation that raises is counted as failed and yields FAILED; its time
    is not recorded. ``latency=False`` times an operation into the round
    without making it a latency sample.
    """

    def __init__(self, tracer, probe_calls: int = 1) -> None:
        self.tracer = tracer
        self.probe_calls = probe_calls
        self.samples: list[list[tuple[int, float, float]]] = []
        self.sampled: set[int] = set()
        self.methods = 0
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self._index = 0

    def op(self, fn, latency: bool = True):
        self.attempted += 1
        index = self._index
        self._index += 1
        before = calibrate.probe(self.probe_calls)
        with self.tracer.span("op"):
            start = perf_counter()
            try:
                result = fn()
            except Exception:  # a fault of the program under test
                self.failed += 1
                if self.failed == 1:
                    traceback.print_exc(file=sys.stderr)
                return FAILED
            elapsed = perf_counter() - start
        slowdown = calibrate.slowdown((before + calibrate.probe(self.probe_calls)) / 2)
        if index == len(self.samples):
            self.samples.append([])
        self.samples[index].append((self.rounds, elapsed, slowdown))
        if latency:
            self.sampled.add(index)
        return result

    def slowdowns(self) -> list[float]:
        """The slowdown beside every operation."""
        return [s for times in self.samples for _, _, s in times]

    @property
    def scaled(self) -> list[list[float]]:
        """Each operation's times over the rounds, at the reference speed."""
        return [[t / s for _, t, s in times] for times in self.samples]

    @property
    def latencies(self) -> list[float]:
        """The scaled times of the operations that are latency samples."""
        scaled = self.scaled
        return [t for i in sorted(self.sampled) for t in scaled[i]]

    def round_times(self) -> list[float]:
        """Each whole round's scaled time: the sum of its operations."""
        totals = [0.0] * self.rounds
        for times in self.samples:
            for r, t, s in times:
                if r < self.rounds:
                    totals[r] += t / s
        return totals

    def end_round(self, methods: int) -> None:
        self.methods = methods
        self.rounds += 1
        self._index = 0


def load_nihdl(*modules: str) -> SimpleNamespace:
    """Import nihdl from scratch and return the named submodules."""
    for key in [k for k in sys.modules if k == "nihdl" or k.startswith("nihdl.")]:
        del sys.modules[key]
    return SimpleNamespace(**{m: importlib.import_module("nihdl." + m) for m in modules})


def severity_counts(diagnostics) -> dict[str, int]:
    codes = [d.code[0] for d in diagnostics]
    return {"errors": codes.count("E"), "warnings": codes.count("W"), "infos": codes.count("I")}


class Workload:
    name = ""
    tail_pct = 0
    default_size = 0
    # Kernel calls per speed probe, before and after each operation: a
    # few percent of an operation's time, and at least one.
    probe_calls = 1

    def __init__(self, root: Path, work: Path, seed: int, size: int | None = None) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.size = size or self.default_size
        self.state = None

    def generate(self) -> str:
        """Draw and write the inputs in a child process, read back what the
        checks need, and return the inputs' digest."""
        self.dir = self.work / self.name
        subprocess.run([sys.executable, str(HERE / "generate.py"), "--workload", self.name,
                        "--seed", str(self.seed), "--size", str(self.size),
                        "--out", str(self.dir)], check=True, timeout=170)
        self.expected = json.loads((self.dir / "expected.json").read_text(encoding="utf-8"))
        return self.expected["digest"]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------

class Survey(Workload):
    """Lint a corpus file by file in survey mode, then rebuild its index."""

    name = "survey"
    probe_calls = 1
    tail_pct = 98
    default_size = 86

    def setup(self, tr) -> SimpleNamespace:
        nd = load_nihdl("store", "validate")
        handle = nd.store.open_corpus(self.dir)
        with tr.span("dsl.catalog"):
            catalog, diags = nd.store.load_catalog(handle)
        return SimpleNamespace(nd=nd, handle=handle, catalog=catalog, catalog_diags=diags)

    def prepare(self) -> None:
        st, ex = self.state, self.expected
        check(st.catalog is not None and not st.catalog_diags, "catalog does not parse")
        check(len(st.handle.description_files) == len(ex["files"]),
              f"open_corpus found {len(st.handle.description_files)} files, "
              f"drew {len(ex['files'])}")
        self.fingerprints = [fp for _, fp, _ in ex["files"]]
        self.unknown = [set(names) for _, _, names in ex["files"]]
        self.unknown_paths = set(ex["unknown_paths"])
        self.sizes = [path.stat().st_size for path in st.handle.description_files]

    def round(self, rec: Recorder, tr) -> None:
        st, ex = self.state, self.expected
        store, catalog = st.nd.store, st.catalog
        survey_mode = st.nd.validate.ValidationMode.SURVEY
        validate_document = st.nd.validate.validate_document
        files = methods = 0
        failed_before = rec.failed
        for i, path in enumerate(st.handle.description_files):
            def op():
                with tr.span("dsl.parse", files=1, bytes=self.sizes[i]) as ps:
                    doc, diags = store.read_description_file(path)
                with tr.span("validate") as vs:
                    found = validate_document(doc, catalog, survey_mode)
                return doc, diags, found, ps, vs

            result = rec.op(op)
            if result is FAILED:
                continue
            doc, diags, found, ps, vs = result
            check(not diags, f"{path.name}: parse diagnostics {[d.render() for d in diags]}")
            check(generate.fingerprint(doc.methods) == self.fingerprints[i],
                  f"{path.name}: parsed methods differ from the drawn values")
            e110 = {d.method_name for d in found if d.code == "E110"}
            check(e110 == self.unknown[i], f"{path.name}: E110 on {e110}, drawn {self.unknown[i]}")
            ps.add(methods=len(doc.methods))
            vs.add(methods=len(doc.methods), **severity_counts(found))
            files += 1
            methods += len(doc.methods)
        check(rec.failed > failed_before
              or (files == len(self.fingerprints) and methods == ex["methods"]),
              f"pass saw {files} files and {methods} methods, "
              f"drew {len(self.fingerprints)}/{ex['methods']}")

        def index():
            with tr.span("store.build_index", files=1) as span:
                rows, diags = store.build_index(st.handle, catalog)
            return rows, diags, span

        result = rec.op(index, latency=False)
        rec.end_round(ex["methods"])
        if result is FAILED:
            return
        rows, diags, span = result
        text = (self.dir / "index.tsv").read_bytes()
        span.add(bytes=len(text))
        check(len(rows) == ex["methods"], f"index has {len(rows)} rows, drew {ex['methods']}")
        unresolved = {d.message.split(": ", 1)[1] for d in diags if d.code == "E110"}
        check(unresolved == self.unknown_paths and len(diags) == len(self.unknown_paths),
              f"build_index diagnostics {[d.render() for d in diags]}")
        # The header, one row per drawn method with its file, name, source,
        # year, path and score, and the same bytes on every pass.
        check(hashlib.sha256(text).hexdigest() == ex["index_sha256"],
              "index.tsv differs from the drawn methods")


# ---------------------------------------------------------------------------
# analytics
# ---------------------------------------------------------------------------

class Analytics(Workload):
    """Recompute the full survey report over a corpus held in memory."""

    name = "analytics"
    probe_calls = 4
    tail_pct = 90
    default_size = 86

    def setup(self, tr) -> SimpleNamespace:
        nd = load_nihdl("store", "analyze")
        handle = nd.store.open_corpus(self.dir)
        with tr.span("dsl.catalog"):
            catalog, catalog_diags = nd.store.load_catalog(handle)
        with tr.span("store.load_all") as span:
            documents, diags = nd.store.load_all(handle)
        methods = [m for doc in documents for m in doc.methods]
        span.add(files=len(documents), methods=len(methods))
        return SimpleNamespace(nd=nd, catalog=catalog, methods=methods,
                               diags=catalog_diags + diags)

    def prepare(self) -> None:
        st, ex = self.state, self.expected
        check(st.catalog is not None and not st.diags, "corpus does not load cleanly")
        check(generate.fingerprint(st.methods) == ex["fingerprint"],
              "loaded methods differ from the drawn values")
        self.presence = {a: tuple(c) for a, c in ex["presence"].items()}
        self.years = {year: (total, {a: tuple(c) for a, c in counts.items()})
                      for year, (total, counts) in ex["years"].items()}
        self.groups = {(source, label): (tuple(members), tuple(attrs), flagged)
                       for source, label, members, attrs, flagged in ex["groups"]}
        self.inconsistencies = {tuple(pair) for pair in ex["inconsistencies"]}
        self.leaves = set(ex["leaves"])

    def round(self, rec: Recorder, tr) -> None:
        st = self.state
        analyze, methods, catalog = st.nd.analyze, st.methods, st.catalog
        columns = list(MATRIX_COLUMNS)

        def op():
            with tr.span("analyze.corpus_stats"):
                stats = analyze.corpus_stats(methods, catalog)
            with tr.span("analyze.combined_groups"):
                groups = analyze.combined_groups(methods)
            with tr.span("analyze.inconsistency_report"):
                inconsistent = analyze.inconsistency_report(methods)
            with tr.span("analyze.comparison_matrix"):
                matrix = analyze.comparison_matrix(methods, columns)
            with tr.span("analyze.completeness"):
                scores = [analyze.completeness(m) for m in methods]
            return stats, groups, inconsistent, matrix, scores

        result = rec.op(op)
        rec.end_round(len(methods))
        if result is not FAILED:
            self._check(*result)

    def _check(self, stats, groups, inconsistent, matrix, scores) -> None:
        ex = self.expected
        check(stats.total == ex["methods"], f"total {stats.total}, drew {ex['methods']}")
        counts = {a.key: (c.full, c.partial, c.absent) for a, c in stats.attributes.items()}
        check(counts == self.presence, f"attribute counts {counts}")
        years = {
            "unknown" if year is None else str(year): (
                ys.total, {a.key: (c.full, c.partial, c.absent) for a, c in ys.attributes.items()})
            for year, ys in stats.by_year.items()
        }
        check(years == self.years, "per-year table differs from the drawn years")
        histogram = {path.text: count for path, count in stats.histogram.items()}
        check(histogram == ex["histogram"] and stats.unassigned == ex["unassigned"],
              "pattern histogram differs from the drawn paths")
        check(set(histogram) <= self.leaves
              and sum(histogram.values()) + stats.unassigned == stats.total,
              "leaf counts plus unassigned do not add up to the total")
        check(not stats.diagnostics, "corpus_stats reported diagnostics")
        found = {(g.source, g.label): (g.members, tuple(a.key for a in g.attributes), g.flagged)
                 for g in groups}
        check(len(groups) == len(found) and found == self.groups,
              "combined groups differ from the drawn shared labels")
        rows = {(r.source, r.attribute.key) for r in inconsistent}
        check(len(rows) == len(inconsistent) and rows == self.inconsistencies,
              "inconsistency report differs from the drawn sources")
        check(len(matrix) == ex["methods"] and all(len(r) == len(MATRIX_COLUMNS) for r in matrix),
              "comparison matrix has the wrong shape")
        for i, attr in enumerate(generate.TRACKED):
            cells = [row[i] for row in matrix]
            got = tuple(sum(c.startswith(p) for c in cells) for p in ("Yes", "Par", "No"))
            check(got == self.presence[attr]
                  and sum(c.endswith(",combined") for c in cells) == ex["combined"][attr],
                  f"matrix column {attr} differs from the drawn presences")
        relation = [row[6] for row in matrix]
        check(relation.count("Yes") == ex["relation_yes"]
              and relation.count("No") == ex["methods"] - ex["relation_yes"],
              "matrix column relation differs from the drawn senders")
        directness = [row[7] for row in matrix]
        check({c: directness.count(c) for c in set(directness)} == ex["directness"],
              "matrix column directness differs from the drawn channels")
        check([str(s.aggregate) for s in scores] == ex["scores"],
              "completeness scores differ from the drawn presences")


# ---------------------------------------------------------------------------
# authoring
# ---------------------------------------------------------------------------

class Authoring(Workload):
    """The author and reviewer loop on one submitted document at a time."""

    name = "authoring"
    probe_calls = 1
    tail_pct = 90
    default_size = 100

    def generate(self) -> str:
        digest = super().generate()
        self.catalog_path = self.dir / "catalog.nihc"
        self.catalog_bytes = self.catalog_path.read_bytes()
        self.texts = []
        for rel, _, _ in self.expected["docs"]:
            data = (self.dir / rel).read_bytes()
            self.texts.append((rel, data.decode("utf-8"), len(data)))
        return digest

    def setup(self, tr) -> SimpleNamespace:
        nd = load_nihdl("store", "dsl", "validate", "novelty", "model", "cli")
        with tr.span("dsl.catalog"):
            catalog, diags = nd.store.read_catalog_file(self.catalog_path)
        return SimpleNamespace(nd=nd, start=catalog, catalog=catalog, diags=diags)

    def prepare(self) -> None:
        st, ex = self.state, self.expected
        check(st.start is not None and not st.diags, "catalog does not parse")
        self.fingerprints = [fp for _, fp, _ in ex["docs"]]
        self.codes = [{tuple(c) for c in codes} for _, _, codes in ex["docs"]]
        self.verdicts = {name: tuple(v) for name, v in ex["verdicts"].items()}

    def round(self, rec: Recorder, tr) -> None:
        st = self.state
        nd = st.nd
        dsl, store, novelty, model, build_report = (
            nd.dsl, nd.store, nd.novelty, nd.model, nd.cli.build_report)
        strict = nd.validate.ValidationMode.STRICT
        st.catalog = st.start
        for i, (rel, text, size) in enumerate(self.texts):
            out_path = self.dir / rel

            def op():
                with tr.span("dsl.parse", files=1, bytes=size) as span:
                    doc, diags = dsl.parse_description(text, rel)
                    span.add(methods=len(doc.methods))
                with tr.span("validate") as span:
                    found = nd.validate.validate_document(doc, st.catalog, strict)
                    if tr.enabled:
                        span.add(methods=len(doc.methods), **severity_counts(found))
                with tr.span("dsl.serialize") as span:
                    canonical = dsl.serialize(doc)
                    written = len(canonical.encode("utf-8")) if tr.enabled else 0
                    span.add(bytes=written)
                with tr.span("store.write", files=1, bytes=written):
                    store.atomic_write_text(out_path, canonical)
                with tr.span("dsl.parse", files=1, bytes=written) as span:
                    back, back_diags = store.read_description_file(out_path)
                    span.add(methods=len(back.methods))
                reports, verdicts = [], []
                for m in back.methods:
                    with tr.span("model.normalize"):
                        normal = model.normalize(m)
                    with tr.span("cli.build_report"):
                        reports.append(build_report(normal))
                    with tr.span("novelty.assess") as span:
                        verdict = novelty.assess(m, st.catalog)
                        if tr.enabled:
                            span.add(**{_verdict_kind(novelty, verdict).replace("-", "_"): 1})
                    verdicts.append(verdict)
                for verdict in verdicts:
                    if isinstance(verdict, novelty.BigCCandidate):
                        with tr.span("novelty.accept_big_c"):
                            st.catalog = novelty.accept_big_c(st.catalog, verdict)
                        with tr.span("dsl.catalog"):
                            catalog_text = dsl.serialize_catalog(st.catalog)
                        with tr.span("store.write", files=1) as span:
                            store.atomic_write_text(self.catalog_path, catalog_text)
                            if tr.enabled:
                                span.add(bytes=len(catalog_text.encode("utf-8")))
                return doc, diags, found, canonical, back, back_diags, reports, verdicts

            result = rec.op(op)
            if result is not FAILED:
                self._check(i, dsl, novelty, *result)
        rec.end_round(self.expected["methods"])
        catalog, diags = store.read_catalog_file(self.catalog_path)
        check(not diags and catalog == st.catalog,
              "catalog file differs from the catalog after the last acceptance")
        # The next round, and a set-up between rounds, start from the
        # submitted catalog.
        self.catalog_path.write_bytes(self.catalog_bytes)

    def _check(self, i, dsl, novelty, doc, diags, found, canonical, back, back_diags,
               reports, verdicts) -> None:
        rel = self.texts[i][0]
        check(not diags and generate.fingerprint(doc.methods) == self.fingerprints[i],
              f"{rel}: parsed methods differ from the drawn values")
        codes = {(d.method_name, d.code) for d in found
                 if d.code in ("E110", "E111", "E112", "E211")}
        check(codes == self.codes[i], f"{rel}: strict findings {codes}, drew {self.codes[i]}")
        check(not back_diags and generate.fingerprint(back.methods) == self.fingerprints[i],
              f"{rel}: the rewritten file does not parse back to the submitted value")
        check(dsl.serialize(back) == canonical, f"{rel}: serialization is not idempotent")
        for m, report, verdict in zip(back.methods, reports, verdicts):
            check(report.startswith(f"Method: {m.name}\n") and "\nHiding Pattern\n" in report,
                  f"{rel}: report for {m.name!r} lacks its header")
            want = self.verdicts[m.name]
            kind = _verdict_kind(novelty, verdict)
            if want[0] == "small-c":
                ok = kind == "small-c" and verdict.path.text == want[1]
            elif want[0] == "big-c":
                ok = (kind == "big-c" and verdict.parent.text == want[1]
                      and verdict.proposed_name == want[2]
                      and isinstance(novelty.assess(m, self.state.catalog), novelty.SmallC))
            else:
                ok = kind == "rejected"
            check(ok, f"{rel}: {m.name!r} assessed as {verdict.render()!r}, drew {want}")


def _verdict_kind(novelty, verdict) -> str:
    if isinstance(verdict, novelty.SmallC):
        return "small-c"
    if isinstance(verdict, novelty.BigCCandidate):
        return "big-c"
    return "rejected"


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# The committed synthetic corpus holds the published survey counts.
SYNTHETIC_MARGINALS = generate.MARGINALS
SYNTHETIC_METHODS = generate.SURVEY_METHODS
FIXTURE = "tests/fixtures/synthetic"


class Cli(Workload):
    """`nihdl validate` then `nihdl stats`, each as a fresh process."""

    name = "cli"
    probe_calls = 10
    tail_pct = 70

    def generate(self) -> str:
        fixture = self.root / FIXTURE
        self.files = sorted(p.relative_to(self.root).as_posix()
                            for p in (fixture / "descriptions").glob("*.nihd"))
        rels = [f"{FIXTURE}/catalog.nihc"] + self.files
        self.sizes = {rel: (self.root / rel).stat().st_size for rel in self.files}
        self.commands = {
            "validate": ["validate", "--catalog", f"{FIXTURE}/catalog.nihc", *self.files],
            "stats": ["stats", FIXTURE, "--by-year", "--patterns", "--combined",
                      "--inconsistent", "--format", "json"],
        }
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        for name in ("NIHDL_CATALOG", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(name, None)
        return generate.digest([(rel, (self.root / rel).read_bytes()) for rel in rels])

    def setup(self, tr) -> None:
        # What every command pays before it does any work: a fresh
        # interpreter importing nihdl.cli. The workload keeps nothing in
        # the benchmark process.
        code, _, err = self._run([sys.executable, "-c", "import nihdl.cli"])
        check(code == 0, f"import nihdl.cli failed: {err[-300:]!r}")

    def _run(self, argv: list[str]) -> tuple[int, bytes, bytes]:
        done = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              timeout=120, check=False)
        return done.returncode, done.stdout, done.stderr

    def _nihdl(self, command: str) -> tuple[int, bytes, bytes]:
        return self._run([sys.executable, "-m", "nihdl.cli", *self.commands[command]])

    def prepare(self) -> None:
        # Traced rounds also run the commands in-process.
        self.nd = load_nihdl("cli", "store", "validate", "analyze")
        # One untimed invocation of each command fills the bytecode caches and
        # gives the reference output every later invocation must repeat.
        self.reference = {c: self._nihdl(c) for c in self.commands}
        code, out, err = self.reference["validate"]
        check(b"Traceback" not in err, "validate crashed")
        # Every synthetic method carries at most a detection entry, so each
        # one lacks an elimination entry: E140 per method, exit status 1.
        missing = err.decode("utf-8").count("no elimination countermeasure entry")
        check(code == 1 and out == b"" and missing == SYNTHETIC_METHODS,
              f"validate exit {code} with {missing} missing-elimination findings")
        code, out, err = self.reference["stats"]
        check(code == 0 and err == b"", f"stats exit {code}: {err[-300:]!r}")
        report = json.loads(out)
        check(report["total"] == SYNTHETIC_METHODS and report["unassigned"] == 1,
              f"stats reports {report['total']} methods, {report['unassigned']} unassigned")
        got = {k: (v["full"], v["partial"]) for k, v in report["attributes"].items()}
        check(got == SYNTHETIC_MARGINALS, f"stats marginals {got}")
        check(sum(report["histogram"].values()) + report["unassigned"] == report["total"],
              "histogram does not add up to the total")

    def round(self, rec: Recorder, tr) -> None:
        def op():
            with tr.span("cli.process"):
                validate = self._nihdl("validate")
            with tr.span("cli.process"):
                stats = self._nihdl("stats")
            return validate, stats

        result = rec.op(op)
        rec.end_round(SYNTHETIC_METHODS)
        if result is not FAILED:
            for command, got in zip(self.commands, result):
                check(b"Traceback" not in got[2], f"{command} crashed: {got[2][-300:]!r}")
                check(got == self.reference[command],
                      f"{command} output or exit status differs from the first invocation")
        if tr.enabled:
            self._layers(tr)

    def _layers(self, tr) -> None:
        """Traced runs only: interpreter and import cost, the commands run
        in-process, and the same work split into calls per layer."""
        with tr.span("cli.bare"):
            self._run([sys.executable, "-c", "pass"])
        with tr.span("cli.import"):
            self._run([sys.executable, "-c", "import nihdl.cli"])
        nd = self.nd
        for command, argv in self.commands.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.chdir(self.root), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), tr.span("cli.main"):
                code = nd.cli.main(argv)
            check((code, out.getvalue().encode(), err.getvalue().encode())
                  == self.reference[command],
                  f"in-process {command} differs from the command's output")
        with tr.span("dsl.catalog"):
            catalog, _ = nd.store.read_catalog_file(self.root / FIXTURE / "catalog.nihc")
        for rel in self.files:
            with tr.span("dsl.parse", files=1, bytes=self.sizes[rel]) as span:
                doc, _ = nd.store.read_description_file(self.root / rel)
            span.add(methods=len(doc.methods))
            with tr.span("validate") as span:
                found = nd.validate.validate_document(doc, catalog)
            span.add(methods=len(doc.methods), **severity_counts(found))
        with tr.span("store.load_all") as span:
            documents, _ = nd.store.load_all(nd.store.open_corpus(self.root / FIXTURE))
        methods = [m for doc in documents for m in doc.methods]
        span.add(files=len(documents), methods=len(methods))
        with tr.span("analyze.corpus_stats"):
            nd.analyze.corpus_stats(methods, catalog)
        with tr.span("analyze.combined_groups"):
            nd.analyze.combined_groups(methods)
        with tr.span("analyze.inconsistency_report"):
            nd.analyze.inconsistency_report(methods)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {w.name: w for w in (Survey, Analytics, Authoring, Cli)}
