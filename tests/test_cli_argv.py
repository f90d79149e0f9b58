"""Generated command lines: no CLI input may end in a traceback.

A seeded generator combines every subcommand's argument shapes (missing,
empty or repeated flags, stray values) with a pool of hostile inputs: c04
mutants written as ``.nihd`` and ``.nihc``, files that are not UTF-8,
empty files, directories, symlink loops, dangling links, 250-byte names
and catalogs of 63 to 65 levels. Each of the 400 generated command lines
(``CASES``) runs twice in-process through ``cli.main``; four of those that
print a report (``CLOSED_STDOUT_CASES``) run again as subprocesses whose
stdout pipe has no reader. Both tests together take about 3 s.
"""

import contextlib
import io
import itertools
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import nihdl
from nihdl.cli import main

from conftest import CATALOG_FILE, DHCP_FILE, GAP_FILE, JOINT_FILE, SYNTHETIC_DIR
from test_acceptance import _c04_mutants

CASES = 400
CLOSED_STDOUT_CASES = 4
MUTANTS = 12
SEED = 20260


def _chain_catalog(depth: int) -> str:
    return "catalog {\n" + 'node "a" {\n' * depth + "}\n" * depth + "}\n"


def _corpus(root: Path, catalog: Path | None, descriptions: list[Path]) -> Path:
    (root / "descriptions").mkdir(parents=True)
    if catalog is not None:
        shutil.copy(catalog, root / "catalog.nihc")
    for path in descriptions:
        shutil.copy(path, root / "descriptions")
    return root


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    """Input paths by role, and the bytes of every regular file in the pool."""
    root = tmp_path_factory.mktemp("pool")
    files = {}

    def write(name: str, data: bytes) -> Path:
        files[name] = root / name
        files[name].write_bytes(data)
        return files[name]

    for name, source in (("gap.nihd", GAP_FILE), ("dhcp.nihd", DHCP_FILE),
                         ("joint.nihd", JOINT_FILE), ("catalog.nihc", CATALOG_FILE),
                         ("synthetic.nihc", SYNTHETIC_DIR / "catalog.nihc")):
        write(name, source.read_bytes())
    for i, (text, _) in enumerate(itertools.islice(_c04_mutants(), MUTANTS)):
        write(f"mutant{i}.nihd", text.encode())
        write(f"mutant{i}.nihc", text.encode())
    for depth in (63, 64, 65):
        write(f"chain{depth}.nihc", _chain_catalog(depth).encode())
    latin1 = write("latin1.nihd", b'method "caf\xe9" {\n')
    write("latin1.nihc", latin1.read_bytes())
    write("empty.nihd", b"")
    write("empty.nihc", b"")
    write("x" * 245 + ".nihd", GAP_FILE.read_bytes())
    write("why.txt", b"Signals information through sending rates.\n")
    write("blank.txt", b" \n\n")
    directory = root / "directory.nihd"
    directory.mkdir()
    (root / "loop.nihd").symlink_to("loop.nihd")
    (root / "dangling.nihc").symlink_to("missing.nihc")
    odd = [str(directory), str(root / "loop.nihd"), str(root / "dangling.nihc"),
           str(root / "missing.nihd")]
    descriptions = [str(p) for n, p in files.items() if n.endswith(".nihd")] + odd
    catalogs = [str(p) for n, p in files.items() if n.endswith(".nihc")] + odd + [""]
    # The joint fixture names internal nodes of this catalog (E111), so it is not clean.
    clean = [files[n] for n in ("gap.nihd", "dhcp.nihd")]
    corpora = [
        _corpus(root / "clean-corpus", files["catalog.nihc"], clean),
        _corpus(root / "corpus", files["catalog.nihc"],
                [files[n] for n in ("gap.nihd", "dhcp.nihd", "joint.nihd", "mutant0.nihd",
                                    "mutant1.nihd", "latin1.nihd", "empty.nihd")]),
        _corpus(root / "empty-corpus", files["catalog.nihc"], []),
        _corpus(root / "chain-corpus", files["chain65.nihc"], [files["gap.nihd"]]),
        _corpus(root / "mutant-corpus", files["mutant3.nihc"], [files["mutant2.nihd"]]),
        _corpus(root / "no-catalog", None, [files["gap.nihd"]]),
    ]
    (corpora[1] / "descriptions" / "loop.nihd").symlink_to("loop.nihd")
    corpora = [str(p) for p in corpora] + [str(files["gap.nihd"]), str(directory),
                                           str(root / "missing"), ""]
    justifications = [str(files["why.txt"]), str(files["blank.txt"]), str(latin1),
                      str(directory), str(root / "missing.txt")]
    snapshot = {path: path.read_bytes() for path in files.values()}
    writable = [str(files[n]) for n in ("catalog.nihc", "chain63.nihc", "chain64.nihc")]
    # Each role's first path is a good input, which a clean case keeps to.
    return dict(descriptions=descriptions, catalogs=catalogs, corpora=corpora,
                justifications=justifications, writable=writable,
                clean=[str(p) for p in clean], snapshot=snapshot)


# The first value of each list is a good one.
TIMING = "Network Covert Timing Channels"
PARENTS = [TIMING, "", "unassigned", "A / ", TIMING + " / Inter-arrival Time Pattern",
           " / ".join(["a"] * 63), " / ".join(["a"] * 64), "a", "Nope / Deeper", "a /  / a"]
NAMES = ["Rate Pattern", "", " padded", "a / b", "Rate\nPattern", "x" * 250,
         "Inter-arrival Time Pattern", "a"]
METHODS = ["Model-based inter-packet gap channel", "", "nope"]
ATTRIBUTES = ["application-scenario,bandwidth", "", ",", "bandwidth,bandwidth",
              "relation,directness", "bandwidth,nope", " bandwidth",
              "application-scenario,carrier-requirements,countermeasures,bandwidth,"
              "robustness,control-protocol,relation,directness"]


def _flag(rng: random.Random, flag: str, values: list[str], omit: float = 0.3) -> list[str]:
    """A value flag left out, given without its value, once or twice."""
    roll = rng.random()
    if roll < omit:
        return []
    if roll < omit + 0.05:
        return [flag]
    if roll < omit + 0.15:
        return [flag, rng.choice(values), flag, rng.choice(values)]
    return [flag, rng.choice(values)]


def _switch(rng: random.Random, flag: str) -> list[str]:
    return [flag] * rng.choice((0, 0, 1, 2))


def _argv(rng: random.Random, pool: dict) -> list[str]:
    command = rng.choice(["validate", "render", "tree", "stats", "compare", "assess",
                          "catalog-add"])
    # A clean case takes only good inputs and flag values, so every
    # subcommand also gets to succeed; its flags may still be odd.
    clean = rng.random() < 0.2

    def some(values: list[str]) -> list[str]:
        return values[:1] if clean else values

    descriptions = pool["clean"] if clean else pool["descriptions"]
    catalogs = some(pool["catalogs"])
    positional: list[str] = []
    flags: list[list[str]] = []
    # Positional paths may repeat, and a one-path command may get none or two.
    if command in ("validate", "compare"):
        positional = rng.choices(descriptions, k=rng.choice((0, 1, 1, 2, 3)))
    elif command in ("render", "assess"):
        positional = rng.choices(descriptions, k=rng.choice((0, 1, 1, 1, 2)))
    elif command == "stats":
        positional = rng.choices(some(pool["corpora"]), k=rng.choice((0, 1, 1, 1, 2)))
    if command == "catalog-add":
        # Weighted towards catalogs that parse, so some additions succeed.
        flags.append(_flag(rng, "--catalog", catalogs + some(pool["writable"]) * 4, omit=0.1))
    elif command in ("validate", "tree", "assess"):
        flags.append(_flag(rng, "--catalog", catalogs))
    if command == "validate":
        flags.append(_switch(rng, "--strict"))
    elif command == "render":
        flags.append(_flag(rng, "--method", some(METHODS)))
    elif command == "stats":
        for switch in ("--by-year", "--patterns", "--combined", "--inconsistent"):
            flags.append(_switch(rng, switch))
        flags.append(_flag(rng, "--format", ["table", "csv", "json", "xml"]))
    elif command == "compare":
        flags.append(_flag(rng, "--attributes", some(ATTRIBUTES)))
        flags.append(_flag(rng, "--format", ["table", "csv", "json"]))
    elif command == "catalog-add":
        # Its three flags are required, so each is left out less often.
        flags.append(_flag(rng, "--parent", some(PARENTS), omit=0.05))
        flags.append(_flag(rng, "--name", some(NAMES), omit=0.05))
        flags.append(_flag(rng, "--justification", some(pool["justifications"]), omit=0.05))
    rng.shuffle(flags)
    return [command, *positional, *itertools.chain.from_iterable(flags)]


def _cases(pool: dict) -> list[tuple[list[str], str | None]]:
    """(argv, NIHDL_CATALOG or None) for every generated case."""
    rng = random.Random(SEED)
    return [(_argv(rng, pool), rng.choice(pool["catalogs"]) if rng.random() < 0.3 else None)
            for _ in range(CASES)]


def _restore(snapshot: dict) -> list[Path]:
    """Undo whatever a catalog-add wrote into the pool; return the files it changed."""
    changed = [path for path, data in snapshot.items() if path.read_bytes() != data]
    for path in changed:
        path.write_bytes(snapshot[path])
    return changed


def _run(argv: list[str], env_catalog: str | None, monkeypatch) -> tuple[int, str, str]:
    if env_catalog is None:
        monkeypatch.delenv("NIHDL_CATALOG", raising=False)
    else:
        monkeypatch.setenv("NIHDL_CATALOG", env_catalog)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # any escape is the failure; name its command line
            pytest.fail(f"{argv!r} (NIHDL_CATALOG={env_catalog!r}) raised {exc!r}")
    return code, out.getvalue(), err.getvalue()


def test_generated_argv_exit_without_traceback(pool, monkeypatch):
    snapshot = pool["snapshot"]
    seen = set()
    for argv, env_catalog in _cases(pool):
        first = _run(argv, env_catalog, monkeypatch)
        code, _, err = first
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if argv[0] == "catalog-add":
            # Only catalog-add writes; a failed one leaves every file as it was.
            changed = _restore(snapshot)
            assert code == 0 or not changed, argv
        assert _run(argv, env_catalog, monkeypatch) == first, argv
        if argv[0] == "catalog-add":
            _restore(snapshot)
        seen.add((argv[0], code))
    # The generator reaches a failure and a success of every subcommand.
    commands = {command for command, _ in seen}
    assert len(commands) == 7
    assert all((command, 0) in seen and (command, 2) in seen for command in commands)


def test_generated_argv_with_closed_stdout(pool, monkeypatch):
    """A few generated command lines that print a report, run again with a
    stdout pipe that has no reader: each exits 2 and changes no file."""
    reporting = []
    for argv, env_catalog in _cases(pool):
        code, out, _ = _run(argv, env_catalog, monkeypatch)
        _restore(pool["snapshot"])
        if code == 0 and out:
            reporting.append((argv, env_catalog))
    rng = random.Random(SEED + 1)
    for argv, env_catalog in rng.sample(reporting, CLOSED_STDOUT_CASES):
        env = {name: value for name, value in os.environ.items() if name != "NIHDL_CATALOG"}
        env["PYTHONPATH"] = str(Path(nihdl.__file__).parent.parent)
        if env_catalog is not None:
            env["NIHDL_CATALOG"] = env_catalog
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run([sys.executable, "-m", "nihdl.cli", *argv],
                                    stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
        assert b"Traceback" not in result.stderr, argv
        assert result.returncode == 2, argv
        assert not _restore(pool["snapshot"]), argv
