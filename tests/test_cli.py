"""End-to-end command behaviour: streams, exit codes, formats."""

import csv
import dataclasses
import io
import json
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import nihdl
from nihdl import model
from nihdl.cli import build_report, main

from conftest import (
    CATALOG_FILE,
    DHCP_FILE,
    FIXTURES,
    GAP_FILE,
    GOLDEN,
    SYNTHETIC_DIR,
    JOINT_FILE,
)

CAT = ["--catalog", str(CATALOG_FILE)]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidateCommand:
    def test_fixtures_pass(self, capsys):
        code, out, err = run(capsys, ["validate", str(GAP_FILE), str(DHCP_FILE), *CAT])
        assert code == 0
        assert err == "" and out == ""

    def test_strict_fixtures_pass_too(self, capsys):
        code, _, err = run(capsys, ["validate", str(GAP_FILE), "--strict", *CAT])
        assert code == 0, err

    def test_parse_error_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.nihd"
        bad.write_text(GAP_FILE.read_text().replace("      relation: 1:1\n", ""))
        code, out, err = run(capsys, ["validate", str(bad), *CAT])
        assert code == 1
        assert "E005" in err and out == ""

    def test_validation_error_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.nihd"
        bad.write_text(GAP_FILE.read_text().replace(
            "directness: direct", 'directness: indirect("")'))
        code, _, err = run(capsys, ["validate", str(bad), *CAT])
        assert code == 1
        assert "E120" in err

    def test_missing_catalog_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("NIHDL_CATALOG", raising=False)
        code, _, err = run(capsys, ["validate", str(GAP_FILE)])
        assert code == 2
        assert "catalog" in err.lower()

    def test_env_var_supplies_catalog(self, capsys, monkeypatch):
        monkeypatch.setenv("NIHDL_CATALOG", str(CATALOG_FILE))
        code, _, _ = run(capsys, ["validate", str(GAP_FILE)])
        assert code == 0

    def test_empty_env_var_counts_as_unset(self, capsys, monkeypatch):
        monkeypatch.setenv("NIHDL_CATALOG", "")
        assert run(capsys, ["validate", str(GAP_FILE)]) == (2, "", (
            "usage error: --catalog (or NIHDL_CATALOG) is required to resolve pattern paths\n"))

    def test_unassigned_only_file_needs_no_catalog(self, capsys, monkeypatch,
                                                   tmp_path):
        monkeypatch.delenv("NIHDL_CATALOG", raising=False)
        unassigned = tmp_path / "u.nihd"
        unassigned.write_text(
            GAP_FILE.read_text()
            .replace(
                'path: "Network Covert Timing Channels /'
                ' Inter-arrival Time Pattern"',
                "path: unassigned",
            )
            .replace('justify "Network Covert Timing Channels"', 'justify "scope"')
            .replace('justify "Inter-arrival Time Pattern"', 'justify "reach"')
        )
        code, _, err = run(capsys, ["validate", str(unassigned)])
        assert code == 0, err

    def test_empty_catalog_reports_e006(self, capsys, tmp_path):
        empty = tmp_path / "empty.nihc"
        empty.write_text("catalog {}\n")
        code, _, err = run(capsys, ["validate", str(GAP_FILE), "--catalog", str(empty)])
        assert code == 1
        assert "E006" in err

    def test_empty_catalog_reports_e006_once_per_run(self, capsys, tmp_path):
        empty = tmp_path / "empty.nihc"
        empty.write_text("catalog {}\n")
        batches = SYNTHETIC_DIR / "descriptions"
        code, _, err = run(capsys, ["validate", str(batches / "batch_00.nihd"),
                                    str(batches / "batch_01.nihd"), "--catalog", str(empty)])
        assert (code, err) == (1, "E006 error catalog defines no patterns; "
                                  "descriptions cannot be classified\n")

    def test_unreadable_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, ["validate", str(tmp_path / "ghost.nihd"), *CAT])
        assert code == 2
        assert "E007" in err

    def test_diagnostic_line_format(self, capsys, tmp_path):
        bad = tmp_path / "bad.nihd"
        bad.write_text(GAP_FILE.read_text().replace("relation: 1:1",
                                                    "relation: unspecified"))
        code, out, err = run(capsys, ["validate", str(bad), *CAT])
        assert code == 0  # W210 is a warning
        line = err.strip()
        assert line.startswith(f"{bad}:1:1: W210 warning "
                               "[Model-based inter-packet gap channel]")


class TestRenderCommand:
    def test_pattern_block_verbatim(self, capsys):
        code, out, _ = run(capsys, ["render", str(DHCP_FILE)])
        assert code == 0
        assert (
            "Network Covert Storage Channels\n"
            "`-- Modification of Non-Payload\n"
            "    `-- Structure Modifying\n"
            "        `-- Sequence Pattern\n"
            "            `-- Number of Elements Pattern"
        ) in out

    def test_section_order(self, capsys):
        _, out, _ = run(capsys, ["render", str(GAP_FILE)])
        positions = [out.index(h) for h in (
            "Hiding Pattern", "Application Scenario", "Properties of the Carrier",
            "Sender-side Process", "Receiver-side Process",
            "Covert Channel Properties", "Control Protocol", "Countermeasures",
        )]
        assert positions == sorted(positions)

    def test_unknown_method(self, capsys):
        code, out, err = run(capsys, ["render", str(GAP_FILE), "--method", "nope"])
        assert code == 1
        assert "unknown method" in err

    def test_file_without_methods_prints_nothing(self, capsys, tmp_path):
        empty = tmp_path / "empty.nihd"
        empty.write_text("# no methods\n", encoding="utf-8")
        assert run(capsys, ["render", str(empty)]) == (0, "", "")

    def test_multiple_methods_separated_by_rule(self, capsys):
        code, out, _ = run(capsys, ["render", str(JOINT_FILE)])
        assert code == 0
        assert out.count("-" * 72) == 3

    def test_select_single_method(self, capsys):
        code, out, _ = run(capsys, ["render", str(JOINT_FILE),
                                    "--method", "SDP o-tag"])
        assert code == 0
        assert "SDP o-tag" in out and "Link quality" not in out

    # The synthetic batches add generic bindings, control features, an
    # unassigned path and a method without an application scenario; the last
    # file adds a protocol-set binding and a warden.
    @pytest.mark.parametrize("path", [
        GAP_FILE, DHCP_FILE, JOINT_FILE,
        SYNTHETIC_DIR / "descriptions" / "batch_00.nihd",
        SYNTHETIC_DIR / "descriptions" / "batch_13.nihd",
        FIXTURES / "protocol_set_warden.nihd",
    ], ids=lambda path: path.stem)
    def test_report_bytes(self, capsys, path):
        code, out, err = run(capsys, ["render", str(path)])
        assert code == 0 and err == ""
        assert out == (GOLDEN / f"{path.stem}.render.txt").read_text(encoding="utf-8")

    def test_missing_metric_block(self, gap_method):
        channel = dataclasses.replace(gap_method.channel, bandwidth=None)
        report = build_report(model.normalize(dataclasses.replace(gap_method, channel=channel)))
        lines = (GOLDEN / "gap_channel.render.txt").read_text(encoding="utf-8").splitlines()
        at = lines.index("Bandwidth: full (value: 5-20 bits per second)")
        assert report.splitlines() == lines[:at] + ["Bandwidth: (block missing)"] + lines[at + 2:]


class TestTreeCommand:
    def test_seed_by_default(self, capsys):
        code, out, _ = run(capsys, ["tree"])
        assert code == 0
        assert out == (GOLDEN / "seed_tree.txt").read_text()

    def test_seed_when_the_env_var_is_empty(self, capsys, monkeypatch):
        monkeypatch.setenv("NIHDL_CATALOG", "")
        assert run(capsys, ["tree"]) == (0, (GOLDEN / "seed_tree.txt").read_text(), "")

    def test_catalog_file(self, capsys):
        code, out, _ = run(capsys, ["tree", *CAT])
        assert code == 0
        assert out == (GOLDEN / "seed_tree.txt").read_text()

    def test_empty_catalog(self, capsys, tmp_path):
        empty = tmp_path / "empty.nihc"
        empty.write_text("catalog {}\n")
        assert run(capsys, ["tree", "--catalog", str(empty)]) == (0, "", "(empty catalog)\n")


STATS_FORMATS = [("table", "txt"), ("csv", "csv"), ("json", "json")]
ALL_SECTIONS = ["--by-year", "--patterns", "--combined", "--inconsistent"]


class TestStatsCommand:
    def test_synthetic_table(self, capsys):
        code, out, err = run(capsys, ["stats", str(SYNTHETIC_DIR)])
        assert code == 0, err
        assert "methods: 131" in out
        for pct in ("79.4%", "67.2%", "51.9%", "52.7%", "22.1%", "5.3%"):
            assert pct in out

    def test_by_year_and_patterns(self, capsys):
        code, out, _ = run(capsys, ["stats", str(SYNTHETIC_DIR),
                                    "--by-year", "--patterns"])
        assert code == 0
        assert "1987" in out and "2015" in out and "unknown" in out
        assert "unassigned" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, ["stats", str(SYNTHETIC_DIR), "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["attribute", "full", "partial", "absent", "covered"]
        assert rows[1] == ["application-scenario", "74", "30", "27", "79.4"]

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, ["stats", str(SYNTHETIC_DIR), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == 131
        assert payload["attributes"]["robustness"]["covered_pct"] == "22.1"
        assert payload["unassigned"] == 1

    @pytest.mark.parametrize("fmt,suffix", STATS_FORMATS)
    def test_report_bytes(self, capsys, fmt, suffix):
        code, out, err = run(capsys, ["stats", str(SYNTHETIC_DIR), *ALL_SECTIONS,
                                      "--format", fmt])
        assert code == 0 and err == ""
        assert out == (GOLDEN / f"stats.{suffix}").read_text(encoding="utf-8")

    @pytest.fixture
    def small_corpus(self, tmp_path):
        """The joint fixture, whose paths stop at an internal node (E111);
        the gap channel; and an undated gap channel without a source whose
        scenario carries a label that no other method uses."""
        root = tmp_path / "small"
        (root / "descriptions").mkdir(parents=True)
        shutil.copy(CATALOG_FILE, root / "catalog.nihc")
        shutil.copy(JOINT_FILE, root / "descriptions")
        shutil.copy(GAP_FILE, root / "descriptions")
        (root / "descriptions" / "unsourced.nihd").write_text(
            GAP_FILE.read_text()
            .replace('"Model-based inter-packet gap channel"', '"Unsourced gap channel"')
            .replace('  source: "gianvecchio2008"\n  year: 2008\n', "")
            .replace("purpose: general-purpose\n",
                     'purpose: general-purpose\n      shared-with: "solo-eval"\n'))
        return root

    @pytest.mark.parametrize("fmt,suffix", STATS_FORMATS)
    def test_small_corpus_report_bytes(self, capsys, small_corpus, fmt, suffix):
        code, out, err = run(capsys, ["stats", str(small_corpus), *ALL_SECTIONS,
                                      "--format", fmt])
        assert code == 1
        assert err == (
            f"{small_corpus / 'descriptions' / 'joint_descriptions.nihd'}:1:1: E111 error"
            " [Link quality] pattern path is not a leaf: Network Covert Storage Channels"
            " / Modification of Non-Payload / Structure Preserving"
            " / Modification of an Attribute / Value Modulation\n")
        assert out == (GOLDEN / f"stats_small.{suffix}").read_text(encoding="utf-8")

    @pytest.mark.parametrize("fmt,suffix", STATS_FORMATS)
    def test_empty_corpus_report_bytes(self, capsys, tmp_path, fmt, suffix):
        (tmp_path / "descriptions").mkdir()
        shutil.copy(CATALOG_FILE, tmp_path / "catalog.nihc")
        code, out, err = run(capsys, ["stats", str(tmp_path), *ALL_SECTIONS, "--format", fmt])
        assert code == 0 and err == ""
        assert out == (GOLDEN / f"stats_empty.{suffix}").read_text(encoding="utf-8")

    def test_combined_and_inconsistent_flags(self, capsys, tmp_path):
        corpus_root = tmp_path / "corpus"
        (corpus_root / "descriptions").mkdir(parents=True)
        shutil.copy(CATALOG_FILE, corpus_root / "catalog.nihc")
        shutil.copy(JOINT_FILE, corpus_root / "descriptions" / "joint_descriptions.nihd")
        code, out, err = run(capsys, ["stats", str(corpus_root),
                                      "--combined", "--inconsistent"])
        # The Table-1 methods stop at an internal pattern node, which the
        # histogram flags (E111); the reports are still produced.
        assert code == 1
        assert "E111" in err
        assert "sdp-eval" in out
        assert "pervasive-cc" in out

    def test_json_inconsistencies_keep_methods_that_share_a_name(self, capsys, tmp_path):
        (tmp_path / "descriptions").mkdir()
        shutil.copy(CATALOG_FILE, tmp_path / "catalog.nihc")
        shutil.copy(GAP_FILE, tmp_path / "descriptions" / "a.nihd")
        (tmp_path / "descriptions" / "b.nihd").write_text(
            GAP_FILE.read_text().replace("status: full", "status: partial"))
        argv = ["stats", str(tmp_path), "--inconsistent", "--format"]
        _, table, _ = run(capsys, argv + ["csv"])
        code, out, err = run(capsys, argv + ["json"])
        assert code == 0 and err == ""
        name = "Model-based inter-packet gap channel"
        inconsistencies = json.loads(out)["inconsistencies"]
        assert [row["values"] for row in inconsistencies] == [
            [[name, "full"], [name, "partial"]]] * 4
        values = [", ".join(f"{n}={p}" for n, p in row["values"]) for row in inconsistencies]
        assert values == [row[2] for row in list(csv.reader(io.StringIO(table)))[-4:]]

    def test_empty_corpus(self, capsys, tmp_path):
        (tmp_path / "descriptions").mkdir()
        shutil.copy(CATALOG_FILE, tmp_path / "catalog.nihc")
        code, out, _ = run(capsys, ["stats", str(tmp_path)])
        assert code == 0
        assert "methods: 0" in out
        assert "n/a" in out

    def test_missing_corpus_dir(self, capsys, tmp_path):
        code, _, err = run(capsys, ["stats", str(tmp_path / "none")])
        assert code == 2

    def test_descriptions_that_is_not_a_directory_is_usage_error(self, capsys, tmp_path):
        (tmp_path / "descriptions").write_text("")
        shutil.copy(CATALOG_FILE, tmp_path / "catalog.nihc")
        code, out, err = run(capsys, ["stats", str(tmp_path)])
        assert (code, out) == (2, "")
        assert err == f"usage error: not a directory: {tmp_path / 'descriptions'}\n"

    def test_missing_catalog(self, capsys, tmp_path):
        (tmp_path / "descriptions").mkdir()
        code, _, err = run(capsys, ["stats", str(tmp_path)])
        assert code == 2

    def test_unreadable_catalog_is_e007(self, capsys, tmp_path):
        (tmp_path / "descriptions").mkdir()
        (tmp_path / "catalog.nihc").write_bytes(b'catalog "caf\xe9" {}\n')
        code, out, err = run(capsys, ["stats", str(tmp_path)])
        assert code == 2 and out == ""
        assert err == (f"E007 error cannot read {tmp_path / 'catalog.nihc'}: 'utf-8' codec "
                       "can't decode byte 0xe9 in position 12: invalid continuation byte\n")

    def test_unreadable_description_exits_2_after_every_diagnostic(self, capsys, tmp_path):
        shutil.copytree(SYNTHETIC_DIR, tmp_path / "corpus")
        descriptions = tmp_path / "corpus" / "descriptions"
        (descriptions / "a_latin1.nihd").write_bytes(b'method "caf\xe9" {\n')
        (descriptions / "b_malformed.nihd").write_text(
            GAP_FILE.read_text().replace("      relation: 1:1\n", ""))
        code, out, err = run(capsys, ["stats", str(tmp_path / "corpus")])
        assert code == 2
        unreadable, malformed = err.splitlines()
        assert unreadable.startswith("E007 error cannot read") and " E005 error " in malformed
        assert "methods: 131" in out

    def test_a_line_break_in_a_file_name_keeps_each_diagnostic_on_one_line(self, capsys,
                                                                          tmp_path):
        descriptions = tmp_path / "descriptions"
        descriptions.mkdir()
        shutil.copy(CATALOG_FILE, tmp_path / "catalog.nihc")
        try:
            (descriptions / "a\nb.nihd").write_text('method "x" {\n  bogus\n}\n')
            (descriptions / "c\rd.nihd").mkdir()
        except OSError:
            pytest.skip("the filesystem refuses a line break in a file name")
        code, _, err = run(capsys, ["stats", str(tmp_path)])
        assert code == 2
        assert err.splitlines() == [
            f"{descriptions}/a b.nihd:2:3: E001 error unknown key 'bogus'",
            f"E007 error cannot read {descriptions}/c d.nihd: Is a directory",
        ]


JOINT_ATTRS = ("application-scenario,carrier-requirements,countermeasures,"
                "relation,directness,robustness,bandwidth")


class TestCompareCommand:
    def test_joint_csv_matrix(self, capsys):
        code, out, _ = run(capsys, [
            "compare", str(JOINT_FILE), "--attributes", JOINT_ATTRS,
            "--format", "csv",
        ])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1] == ["Link quality", "Yes,combined", "Par", "Yes",
                           "No", "No", "Yes", "Yes"]
        assert rows[2] == ["Sensor data", "Yes,combined", "Par", "Par",
                           "Yes", "Par", "Yes", "Par"]

    @pytest.mark.parametrize("fmt,suffix", [("table", "txt"), ("csv", "csv")])
    def test_report_bytes(self, capsys, fmt, suffix):
        code, out, err = run(capsys, ["compare", str(JOINT_FILE), str(GAP_FILE),
                                      "--attributes", JOINT_ATTRS, "--format", fmt])
        assert code == 0 and err == ""
        assert out == (GOLDEN / f"compare.{suffix}").read_text(encoding="utf-8")

    def test_single_cell(self, capsys):
        code, out, _ = run(capsys, ["compare", str(GAP_FILE),
                                    "--attributes", "bandwidth"])
        assert code == 0
        assert "Yes" in out

    def test_unknown_attribute_usage_error(self, capsys):
        code, _, err = run(capsys, ["compare", str(GAP_FILE),
                                    "--attributes", "bandwith"])
        assert code == 2
        assert "unknown attribute" in err


class TestAssessCommand:
    def test_small_c_line(self, capsys):
        code, out, _ = run(capsys, ["assess", str(GAP_FILE), *CAT])
        assert code == 0
        assert out.strip() == (
            "small-c: Network Covert Timing Channels / Inter-arrival Time Pattern"
        )

    def test_big_c_line(self, capsys, tmp_path):
        draft = tmp_path / "draft.nihd"
        draft.write_text(
            GAP_FILE.read_text()
            .replace(
                "Network Covert Timing Channels / Inter-arrival Time Pattern",
                "Network Covert Timing Channels / Rate Pattern",
            )
            .replace('justify "Inter-arrival Time Pattern"', 'justify "Rate Pattern"')
        )
        code, out, _ = run(capsys, ["assess", str(draft), *CAT])
        assert code == 0
        assert out.strip() == (
            'Big-C candidate: Network Covert Timing Channels + "Rate Pattern"'
        )

    def test_requires_catalog(self, capsys, monkeypatch):
        monkeypatch.delenv("NIHDL_CATALOG", raising=False)
        code, _, err = run(capsys, ["assess", str(GAP_FILE)])
        assert code == 2

    def test_empty_env_var_counts_as_unset(self, capsys, monkeypatch):
        monkeypatch.setenv("NIHDL_CATALOG", "")
        assert run(capsys, ["assess", str(GAP_FILE)]) == (
            2, "", "usage error: --catalog (or NIHDL_CATALOG) is required for assessment\n")


class TestCatalogAddCommand:
    def _setup(self, tmp_path):
        catalog_path = tmp_path / "catalog.nihc"
        shutil.copy(CATALOG_FILE, catalog_path)
        justification = tmp_path / "why.txt"
        justification.write_text("Signals information through sending rates.\n")
        return catalog_path, justification

    def test_add_then_resolve(self, capsys, tmp_path):
        catalog_path, justification = self._setup(tmp_path)
        code, out, _ = run(capsys, [
            "catalog-add", "--catalog", str(catalog_path),
            "--parent", "Network Covert Timing Channels",
            "--name", "Rate Pattern", "--justification", str(justification),
        ])
        assert code == 0
        assert 'added "Rate Pattern"' in out
        text = catalog_path.read_text()
        assert 'node "Rate Pattern" {}' in text
        # The rewrite stays canonical.
        from nihdl import dsl
        catalog, diags = dsl.parse_catalog(text, "t")
        assert diags == [] and dsl.serialize_catalog(catalog) == text

    def test_add_keeps_the_catalog_mode(self, capsys, tmp_path):
        catalog_path, justification = self._setup(tmp_path)
        catalog_path.chmod(0o644)
        old = os.umask(0o077)
        try:
            code, _, _ = run(capsys, [
                "catalog-add", "--catalog", str(catalog_path),
                "--parent", "Network Covert Timing Channels",
                "--name", "Rate Pattern", "--justification", str(justification),
            ])
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE(catalog_path.stat().st_mode) == 0o644

    def test_add_through_a_symlink_rewrites_its_target(self, capsys, tmp_path):
        target, justification = self._setup(tmp_path)
        link = tmp_path / "link.nihc"
        link.symlink_to(target.name)
        code, _, _ = run(capsys, [
            "catalog-add", "--catalog", str(link),
            "--parent", "Network Covert Timing Channels",
            "--name", "Rate Pattern", "--justification", str(justification),
        ])
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert 'node "Rate Pattern" {}' in target.read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "catalog.nihc", "link.nihc", "why.txt"]

    def test_duplicate_add_exits_1(self, capsys, tmp_path):
        catalog_path, justification = self._setup(tmp_path)
        argv = [
            "catalog-add", "--catalog", str(catalog_path),
            "--parent", "Network Covert Timing Channels",
            "--name", "Rate Pattern", "--justification", str(justification),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        code, _, err = run(capsys, argv)
        assert code == 1
        assert err == ("DuplicateChildError: duplicate child 'Rate Pattern' "
                       "under 'Network Covert Timing Channels'\n")

    def test_empty_justification_is_usage_error(self, capsys, tmp_path):
        catalog_path, justification = self._setup(tmp_path)
        justification.write_text("  \n")
        code, _, err = run(capsys, [
            "catalog-add", "--catalog", str(catalog_path),
            "--parent", "Network Covert Timing Channels",
            "--name", "Rate Pattern", "--justification", str(justification),
        ])
        assert code == 2

    def test_unknown_parent_exits_1(self, capsys, tmp_path):
        catalog_path, justification = self._setup(tmp_path)
        code, _, err = run(capsys, [
            "catalog-add", "--catalog", str(catalog_path),
            "--parent", "No Such Node",
            "--name", "Rate Pattern", "--justification", str(justification),
        ])
        assert code == 1
        assert err == "ParentNotFoundError: parent path not in catalog: No Such Node\n"

    def test_node_below_a_sixty_fourth_level_exits_1(self, capsys, tmp_path):
        catalog_path, justification = self._setup(tmp_path)
        catalog_path.write_text("catalog {\n" + 'node "a" {\n' * 64 + "}\n" * 64 + "}\n")
        before = catalog_path.read_bytes()
        code, _, err = run(capsys, [
            "catalog-add", "--catalog", str(catalog_path),
            "--parent", " / ".join(["a"] * 64),
            "--name", "b", "--justification", str(justification),
        ])
        assert code == 1
        assert err == "TaxonomyError: catalog nesting deeper than 64: 'b' under 'a'\n"
        assert catalog_path.read_bytes() == before


def test_usage_error_for_unknown_command(capsys):
    assert main(["frobnicate"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def _cli_env() -> dict[str, str]:
    """This process's environment for a CLI subprocess: no NIHDL_CATALOG,
    and nihdl imported from this tree."""
    env = {name: value for name, value in os.environ.items() if name != "NIHDL_CATALOG"}
    env["PYTHONPATH"] = str(Path(nihdl.__file__).parent.parent)
    return env


@pytest.mark.parametrize("argv", [
    ["render", str(SYNTHETIC_DIR / "descriptions" / "batch_00.nihd")],
    ["stats", str(SYNTHETIC_DIR)],
    ["tree"],
], ids=["render", "stats", "tree"])
def test_closed_stdout_exits_2_in_silence(argv):
    """A command whose stdout pipe has no reader left (its read end is
    closed before the command starts) exits 2 with nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "nihdl.cli", *argv],
                                stdout=write_end, stderr=subprocess.PIPE, env=_cli_env())
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr.decode()) == (2, "")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_stdout_in_process_leaves_no_descriptor_open(monkeypatch):
    """Called in-process on a stdout pipe with no reader, main points
    stdout at the null device and closes the descriptor it opened for it."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        before = len(os.listdir("/proc/self/fd"))
        assert main(["render", str(GAP_FILE)]) == 2
        assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_stats_does_not_open_a_fifo_among_the_descriptions(tmp_path):
    """A FIFO named like a description is reported, not opened: opening it
    would wait for a writer that never comes."""
    root = tmp_path / "corpus"
    shutil.copytree(FIXTURES / "corpus", root)
    fifo = root / "descriptions" / "pipe.nihd"
    os.mkfifo(fifo)
    result = subprocess.run([sys.executable, "-m", "nihdl.cli", "stats", str(root)],
                            capture_output=True, text=True, env=_cli_env(), timeout=30)
    assert (result.returncode, result.stderr) == (
        2, f"E007 error cannot read {fifo}: not a regular file\n")
    assert "methods: 2" in result.stdout


def test_catalog_add_with_closed_stdout_leaves_the_catalog_unchanged(tmp_path):
    """The `added` line goes out before the write, so a closed stdout stops
    the command first: exit 2, nothing on stderr, the catalog's bytes as
    they were."""
    catalog = tmp_path / "catalog.nihc"
    shutil.copy(CATALOG_FILE, catalog)
    before = catalog.read_bytes()
    why = tmp_path / "why.txt"
    why.write_text("A distinct timing pattern.\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "nihdl.cli", "catalog-add", "--catalog", str(catalog),
             "--parent", "Network Covert Timing Channels", "--name", "Rate Pattern",
             "--justification", str(why)],
            stdout=write_end, stderr=subprocess.PIPE, env=_cli_env())
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr.decode()) == (2, "")
    assert catalog.read_bytes() == before


# Hostile inputs for every subcommand: none may end in a traceback. Each
# argv names placeholders that the ``hostile`` fixture fills in: a
# directory where a file is expected, a file that is not UTF-8, a
# description that does not parse, a year with more digits than int()
# reads, corpora without content, a catalog that does not exist, a corpus
# or catalog name too long for the file system, empty --attributes items,
# and catalog-add values, a justification that is blank or cannot be
# read or a catalog that cannot be stored; a few omit a required
# --catalog. Each case's stderr is pinned in tests/golden/hostile_stderr.txt.
HOSTILE_CASES = [
    ("validate-directory", ["validate", "{directory}", "--catalog", "{catalog}"], 2),
    ("validate-not-utf8", ["validate", "{latin1}", "--catalog", "{catalog}"], 2),
    ("validate-malformed", ["validate", "{malformed}", "--catalog", "{catalog}"], 1),
    ("validate-huge-year", ["validate", "{huge_year}", "--catalog", "{catalog}"], 1),
    ("validate-catalog-directory", ["validate", "{gap}", "--catalog", "{directory}"], 2),
    ("validate-catalog-not-utf8", ["validate", "{gap}", "--catalog", "{latin1}"], 2),
    ("validate-catalog-missing", ["validate", "{gap}", "--catalog", "{missing}"], 2),
    ("validate-without-catalog", ["validate", "{gap}"], 2),
    ("validate-unreadable-malformed-catalog",
     ["validate", "{latin1}", "--catalog", "{malformed}"], 2),
    ("render-directory", ["render", "{directory}"], 2),
    ("render-not-utf8", ["render", "{latin1}"], 2),
    ("render-malformed", ["render", "{malformed}"], 1),
    ("tree-catalog-directory", ["tree", "--catalog", "{directory}"], 2),
    ("tree-catalog-not-utf8", ["tree", "--catalog", "{latin1}"], 2),
    ("tree-catalog-malformed", ["tree", "--catalog", "{malformed}"], 1),
    ("tree-catalog-long-name", ["tree", "--catalog", "c" * 300], 2),
    ("stats-empty-directory", ["stats", "{directory}"], 2),
    ("stats-empty-corpus", ["stats", "{empty_corpus}", "--by-year", "--patterns",
                            "--combined", "--inconsistent"], 0),
    ("stats-empty-corpus-json", ["stats", "{empty_corpus}", "--format", "json"], 0),
    ("stats-file-as-corpus", ["stats", "{gap}"], 2),
    ("stats-hostile-corpus", ["stats", "{hostile_corpus}", "--format", "csv"], 2),
    ("stats-catalog-not-utf8", ["stats", "{latin1_catalog_corpus}"], 2),
    ("stats-symlink-corpus", ["stats", "{symlink_corpus}"], 2),
    ("stats-long-corpus-name", ["stats", "a" * 300], 2),
    ("compare-directory", ["compare", "{directory}"], 2),
    ("compare-not-utf8", ["compare", "{gap}", "{latin1}"], 2),
    ("compare-malformed", ["compare", "{gap}", "{malformed}"], 1),
    ("compare-empty-attributes", ["compare", "{gap}", "--attributes", ""], 2),
    ("compare-comma-attributes", ["compare", "{gap}", "--attributes", "bandwidth,"], 2),
    ("assess-directory", ["assess", "{directory}", "--catalog", "{catalog}"], 2),
    ("assess-not-utf8", ["assess", "{latin1}", "--catalog", "{catalog}"], 2),
    ("assess-malformed", ["assess", "{malformed}", "--catalog", "{catalog}"], 1),
    ("assess-catalog-directory", ["assess", "{gap}", "--catalog", "{directory}"], 2),
    ("assess-without-catalog", ["assess", "{gap}"], 2),
    ("catalog-add-catalog-directory",
     ["catalog-add", "--catalog", "{directory}", "--parent", "Network Covert Timing Channels",
      "--name", "Rate Pattern", "--justification", "{why}"], 2),
    ("catalog-add-without-catalog",
     ["catalog-add", "--parent", "Network Covert Timing Channels",
      "--name", "Rate Pattern", "--justification", "{why}"], 2),
    ("catalog-add-catalog-not-utf8",
     ["catalog-add", "--catalog", "{latin1}", "--parent", "Network Covert Timing Channels",
      "--name", "Rate Pattern", "--justification", "{why}"], 2),
    ("catalog-add-catalog-unwritable",
     ["catalog-add", "--catalog", "{long_name_catalog}", "--parent",
      "Network Covert Timing Channels", "--name", "Rate Pattern", "--justification", "{why}"],
     2),
    ("catalog-add-justification-directory",
     ["catalog-add", "--catalog", "{catalog}", "--parent", "Network Covert Timing Channels",
      "--name", "Rate Pattern", "--justification", "{directory}"], 2),
    ("catalog-add-justification-not-utf8",
     ["catalog-add", "--catalog", "{catalog}", "--parent", "Network Covert Timing Channels",
      "--name", "Rate Pattern", "--justification", "{latin1}"], 2),
    ("catalog-add-justification-missing",
     ["catalog-add", "--catalog", "{catalog}", "--parent", "Network Covert Timing Channels",
      "--name", "Rate Pattern", "--justification", "{missing}"], 2),
    ("catalog-add-name-line-feed",
     ["catalog-add", "--catalog", "{catalog}", "--parent", "Network Covert Timing Channels",
      "--name", "Rate\nPattern", "--justification", "{why}"], 2),
    ("catalog-add-name-carriage-return",
     ["catalog-add", "--catalog", "{catalog}", "--parent", "Network Covert Timing Channels",
      "--name", "Rate\rPattern", "--justification", "{why}"], 2),
    ("catalog-add-parent-empty-element",
     ["catalog-add", "--catalog", "{catalog}", "--parent", "a /  / a",
      "--name", "Rate Pattern", "--justification", "{why}"], 2),
    ("catalog-add-parent-empty",
     ["catalog-add", "--catalog", "{catalog}", "--parent", "",
      "--name", "Rate Pattern", "--justification", "{why}"], 2),
    ("catalog-add-justification-blank",
     ["catalog-add", "--catalog", "{catalog}", "--parent", "Network Covert Timing Channels",
      "--name", "Rate Pattern", "--justification", "{blank_why}"], 2),
]


def _golden_stderr() -> dict[str, str]:
    """Expected stderr per hostile case, from blocks headed ``== <case id>``."""
    blocks: dict[str, str] = {}
    for line in (GOLDEN / "hostile_stderr.txt").read_text(encoding="utf-8").splitlines(True):
        if line.startswith("== "):
            case = line[3:].rstrip("\n")
            blocks[case] = ""
        else:
            blocks[case] += line
    return blocks


HOSTILE_STDERR = _golden_stderr()


@pytest.fixture
def hostile(tmp_path):
    directory = tmp_path / "directory.nihd"
    directory.mkdir()
    latin1 = tmp_path / "latin1.nihd"
    latin1.write_bytes(b'method "caf\xe9" {\n')
    malformed = tmp_path / "malformed.nihd"
    malformed.write_text(GAP_FILE.read_text().replace("      relation: 1:1\n", ""))
    huge_year = tmp_path / "huge_year.nihd"
    huge_year.write_text(GAP_FILE.read_text().replace("year: 2008", "year: " + "9" * 4301))
    catalog = tmp_path / "catalog.nihc"
    shutil.copy(CATALOG_FILE, catalog)
    # Readable, but too long a name for a temp file beside it.
    long_name_catalog = tmp_path / ("c" * 245 + ".nihc")
    shutil.copy(CATALOG_FILE, long_name_catalog)
    why = tmp_path / "why.txt"
    why.write_text("Signals information through sending rates.\n")
    blank_why = tmp_path / "blank_why.txt"
    blank_why.write_text(" \t\n\n")
    empty_corpus = tmp_path / "empty"
    (empty_corpus / "descriptions").mkdir(parents=True)
    shutil.copy(CATALOG_FILE, empty_corpus / "catalog.nihc")
    hostile_corpus = tmp_path / "hostile"
    shutil.copytree(empty_corpus, hostile_corpus)
    shutil.copy(latin1, hostile_corpus / "descriptions")
    shutil.copy(malformed, hostile_corpus / "descriptions")
    (hostile_corpus / "descriptions" / "subdirectory.nihd").mkdir()
    shutil.copy(GAP_FILE, hostile_corpus / "descriptions")
    latin1_catalog_corpus = tmp_path / "latin1-catalog"
    shutil.copytree(empty_corpus, latin1_catalog_corpus)
    shutil.copy(latin1, latin1_catalog_corpus / "catalog.nihc")
    symlink_corpus = tmp_path / "symlinks"
    shutil.copytree(empty_corpus, symlink_corpus)
    (symlink_corpus / "descriptions" / "dangling.nihd").symlink_to("missing.nihd")
    (symlink_corpus / "descriptions" / "loop.nihd").symlink_to("loop.nihd")
    shutil.copy(GAP_FILE, symlink_corpus / "descriptions")
    paths = dict(directory=directory, latin1=latin1, malformed=malformed,
                 missing=tmp_path / "missing.nihc",
                 huge_year=huge_year, catalog=catalog, long_name_catalog=long_name_catalog,
                 why=why, blank_why=blank_why, empty_corpus=empty_corpus,
                 hostile_corpus=hostile_corpus,
                 latin1_catalog_corpus=latin1_catalog_corpus,
                 symlink_corpus=symlink_corpus, gap=GAP_FILE)
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("case,argv,expected", HOSTILE_CASES,
                         ids=[case[0] for case in HOSTILE_CASES])
def test_hostile_input_exits_without_traceback(capsys, monkeypatch, tmp_path, hostile,
                                               case, argv, expected):
    monkeypatch.delenv("NIHDL_CATALOG", raising=False)
    catalog_before = open(hostile["catalog"], "rb").read()
    code, _, err = run(capsys, [arg.format(**hostile) for arg in argv])
    assert "Traceback" not in err
    assert code == expected, err
    # Paths are written as <tmp> and <fixtures> in the golden stderr.
    err = err.replace(str(tmp_path), "<tmp>").replace(str(FIXTURES), "<fixtures>")
    assert err == HOSTILE_STDERR[case]
    if argv[0] == "catalog-add":
        assert open(hostile["catalog"], "rb").read() == catalog_before
