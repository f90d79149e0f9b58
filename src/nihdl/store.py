"""Corpus persistence: a corpus is a plain directory.

Layout: ``<root>/catalog.nihc``, ``<root>/descriptions/*.nihd`` and the
generated ``<root>/index.tsv`` (UTF-8, LF, tab-separated; a tab, line
feed or carriage return inside a field is written as one space, so every
row is one line of six fields; each byte of a file name that is not
UTF-8 is written as U+FFFD, so the index stays valid UTF-8). Description
files are discovered in lexicographic order, parse failures never abort
the load of other files, and the index is written atomically (temp file
plus rename), so repeated runs on an unchanged corpus are byte-identical.
``build_index`` parses the corpus itself, one file at a time, and keeps
only the index rows, so its memory follows the largest file rather than
the corpus; a caller that already holds its parsed documents indexes
them with ``write_index``, which consumes any iterable of them once. A
rewritten file keeps its mode; a new one gets 0666 less the umask, and a
symbolic link is written through: its target is rewritten and the link
stays. A corpus directory that cannot be listed (a name too long, say),
or a ``descriptions`` entry that is not a directory, is a ``StoreError``
(a missing ``descriptions`` is an empty corpus); a catalog or
description file that cannot be read, a missing one included, gives
E007, as does a ``*.nihd`` entry that is neither a regular file nor a
directory (a FIFO, a socket or a device), which is never opened.
"""

from __future__ import annotations

import os
import stat
from collections.abc import Iterable, Iterator
from pathlib import Path

from . import dsl
from .diagnostics import ONE_LINE, Diagnostic, one_line, value_class
from .model import MethodDescription
from .taxonomy import PatternCatalog, PatternPath

CATALOG_FILE_NAME = "catalog.nihc"
DESCRIPTIONS_DIR_NAME = "descriptions"
INDEX_FILE_NAME = "index.tsv"

INDEX_HEADER = ("file", "method", "source", "year", "pattern", "score")
# A file name byte that is not UTF-8 comes from ``iterdir`` as a lone surrogate
# (``surrogateescape``): written as U+FFFD, and a tab, LF or CR as one space.
_FILE_FIELD = {**dict.fromkeys(range(0xDC80, 0xDD00), "\ufffd"), **ONE_LINE}


class StoreError(Exception):
    pass


@value_class
class Corpus:
    root: Path
    catalog_file: Path
    description_files: tuple[Path, ...]


def open_corpus(directory: str | Path) -> Corpus:
    """Discover a corpus directory's files, sorted for determinism."""
    root = Path(directory)
    descriptions_dir = root / DESCRIPTIONS_DIR_NAME
    files: tuple[Path, ...] = ()
    try:
        if not root.is_dir():
            raise StoreError(f"not a corpus directory: {root}")
        if descriptions_dir.is_dir():
            # Every entry, readable or not: one that is not a readable file gets E007.
            files = tuple(sorted((p for p in descriptions_dir.iterdir()
                                  if p.suffix == dsl.DESCRIPTION_SUFFIX),
                                 key=lambda p: p.name))
        elif descriptions_dir.exists():  # a missing one is an empty corpus
            raise StoreError(f"not a directory: {descriptions_dir}")
    except OSError as exc:
        raise StoreError(f"cannot read corpus directory {root}: {exc.strerror}") from exc
    return Corpus(
        root=root,
        catalog_file=root / CATALOG_FILE_NAME,
        description_files=files,
    )


def load_catalog(corpus: Corpus) -> tuple[PatternCatalog | None, list[Diagnostic]]:
    """Parse the corpus catalog; a missing or unreadable file gives E007."""
    return read_catalog_file(corpus.catalog_file)


def read_catalog_file(path: str | Path) -> tuple[PatternCatalog | None, list[Diagnostic]]:
    return read_file(path, dsl.parse_catalog)


def read_description_file(path: str | Path) -> tuple[dsl.Document | None, list[Diagnostic]]:
    return read_file(path, dsl.parse_description)


def read_file(path: str | Path, parse=None):
    """``parse`` the file's text, or return it; an unreadable file gives None and E007."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # an OSError names the path again
        return None, [Diagnostic("E007", f"cannot read {path}: {reason}")]
    return (text, []) if parse is None else parse(text, str(path))


def load_all(corpus: Corpus) -> tuple[list[dsl.Document], list[Diagnostic]]:
    """Parse every description file; failures become diagnostics, not aborts."""
    diagnostics: list[Diagnostic] = []
    return list(_documents(corpus, diagnostics)), diagnostics


def _documents(corpus: Corpus, diagnostics: list[Diagnostic]) -> Iterator[dsl.Document]:
    """Yield each file's document in turn, adding E007 and parse
    diagnostics to ``diagnostics``; no document is kept."""
    for path in corpus.description_files:
        try:
            mode = path.stat().st_mode
        except OSError:  # the read reports it
            mode = stat.S_IFREG
        if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
            diagnostics.append(Diagnostic("E007", f"cannot read {path}: not a regular file"))
            continue
        document, diags = read_description_file(path)
        diagnostics.extend(diags)
        if document is not None:
            yield document


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a new temp file in the target directory, then rename over;
    the target's mode, if it exists, is given to the temp file first. A
    symbolic link is written through: its target is replaced, the link stays."""
    if os.path.islink(path):
        path = os.path.realpath(path)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    temp_name = f"{path}.{os.urandom(4).hex()}"
    fd = os.open(temp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            if mode is not None:
                os.fchmod(fd, mode)
            handle.write(text)
        os.replace(temp_name, path)
    except BaseException:
        if os.path.exists(temp_name):
            os.unlink(temp_name)
        raise


def build_index(
    corpus: Corpus, catalog: PatternCatalog
) -> tuple[list[tuple[str, ...]], list[Diagnostic]]:
    """Parse the corpus one file at a time, as ``load_all`` does, and
    ``write_index`` each document as it is parsed.

    Returns the data rows, as written, and the parse diagnostics followed
    by the resolution ones. Methods from files that fail to parse are
    absent from the index.
    """
    diagnostics: list[Diagnostic] = []
    rows, resolution = write_index(corpus, _documents(corpus, diagnostics), catalog)
    return rows, diagnostics + resolution


def write_index(
    corpus: Corpus, documents: Iterable[dsl.Document], catalog: PatternCatalog
) -> tuple[list[tuple[str, ...]], list[Diagnostic]]:
    """Write ``index.tsv`` for already parsed ``documents``: one row per
    method with its completeness score. ``documents`` may be any iterable,
    a generator included; it is consumed once, and only the rows and the
    first method naming each pattern path are kept.

    Returns the data rows, as written, and the E110/E111 diagnostics of
    pattern paths the catalog cannot resolve. A document whose
    ``source_file`` is not under ``corpus.root`` raises ``ValueError``
    before anything is written.
    """
    from .analyze import completeness, pattern_histogram

    rows: list[tuple[str, ...]] = []
    first: dict[PatternPath, MethodDescription] = {}  # E110/E111 are located at these
    for document in documents:
        relative = Path(document.source_file).relative_to(corpus.root)
        file = relative.as_posix().translate(_FILE_FIELD)
        for method in document.methods:
            first.setdefault(method.pattern.path, method)
            score = completeness(method).aggregate
            rows.append((
                file,
                one_line(method.name),
                one_line(method.source) if method.source is not None else "-",
                str(method.year) if method.year is not None else "-",  # digits only
                one_line(method.pattern.path.text),
                f"{float(score):.3f}",
            ))
    _, _, resolution = pattern_histogram(list(first.values()), catalog)
    lines = ["\t".join(INDEX_HEADER)]
    lines.extend("\t".join(row) for row in rows)
    atomic_write_text(corpus.root / INDEX_FILE_NAME, "\n".join(lines) + "\n")
    return rows, resolution
