"""Hierarchical hiding-pattern catalog: queries, rendering and extension.

A catalog is an ordered forest of named nodes. Its roots are siblings like
any node's children: one lookup finds a sibling by name, one rule rejects a
repeated sibling name, and a path is walked from the roots down in one loop.
Methods are classified by stating the complete path from a root to the node
that represents their pattern; classification requires the path to end on a
leaf. All values are immutable; extension returns a new catalog.

Pattern names match byte-wise (case-sensitive, no normalization), may not
contain "/" (the textual path separator is " / ") or a line break, and carry
no leading or trailing whitespace. Sibling order is author order and is preserved.
A catalog nests at most MAX_DEPTH levels, as deep as a catalog file may, so
every catalog can be written to a file and read back.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

PATH_SEPARATOR = " / "
MAX_DEPTH = 64  # levels of nesting a catalog may hold, roots at level 1


class TaxonomyError(Exception):
    pass


class EmptyPathError(TaxonomyError):
    pass


class NotRenderableError(TaxonomyError):
    pass


class ParentNotFoundError(TaxonomyError):
    pass


class DuplicateChildError(TaxonomyError):
    pass


class InvalidNameError(TaxonomyError):
    pass


def check_name(name: str) -> str:
    """``name`` if it is a valid pattern name, else InvalidNameError."""
    if not name:
        raise InvalidNameError("pattern name must be non-empty")
    if "/" in name:
        raise InvalidNameError(f"pattern name may not contain '/': {name!r}")
    if "\n" in name or "\r" in name:
        raise InvalidNameError(f"pattern name may not contain a line break: {name!r}")
    if name != name.strip():
        raise InvalidNameError(f"pattern name has leading/trailing whitespace: {name!r}")
    return name


def _find(nodes: tuple[PatternNode, ...], name: str) -> PatternNode | None:
    for node in nodes:
        if node.name == name:
            return node
    return None


def _check_siblings(nodes: tuple[PatternNode, ...], parent: str | None) -> None:
    """Reject a repeated name among ``parent``'s children (the roots if None)."""
    seen = set()
    for node in nodes:
        if node.name in seen:
            if parent is None:
                raise DuplicateChildError(f"duplicate root {node.name!r}")
            raise DuplicateChildError(f"duplicate child {node.name!r} under {parent!r}")
        seen.add(node.name)


def _check_depth(nodes: tuple[PatternNode, ...], parent: str | None, depth: int) -> None:
    """Reject nesting deeper than MAX_DEPTH in ``nodes`` (at ``depth``) and below."""
    for node in nodes:
        if depth > MAX_DEPTH:
            raise TaxonomyError(f"catalog nesting deeper than {MAX_DEPTH}: "
                                f"{node.name!r} under {parent!r}")
        _check_depth(node.children, node.name, depth + 1)


@dataclass(frozen=True)
class PatternNode:
    name: str
    children: tuple[PatternNode, ...] = ()

    def __post_init__(self) -> None:
        check_name(self.name)
        _check_siblings(self.children, self.name)

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class PatternCatalog:
    roots: tuple[PatternNode, ...] = ()
    label: str | None = None

    def __post_init__(self) -> None:
        _check_siblings(self.roots, None)
        _check_depth(self.roots, None, 1)

    @property
    def is_empty(self) -> bool:
        return not self.roots


@dataclass(frozen=True)
class PatternPath:
    """A chain of node names from a root downward, or the unassigned marker.

    The unassigned marker encodes methods that cannot be tied to any
    pattern (for example carrier-independent key exchange schemes).
    """

    elements: tuple[str, ...] = ()
    unassigned: bool = False

    def __post_init__(self) -> None:
        if self.unassigned and self.elements:
            raise ValueError("an unassigned path carries no elements")
        for element in self.elements:
            check_name(element)

    @classmethod
    def of(cls, *elements: str) -> PatternPath:
        return cls(elements=tuple(elements))

    @classmethod
    def from_text(cls, text: str) -> PatternPath:
        return cls(elements=tuple(text.split(PATH_SEPARATOR)))

    @property
    def text(self) -> str:
        if self.unassigned:
            return "unassigned"
        return PATH_SEPARATOR.join(self.elements)


UNASSIGNED = PatternPath(unassigned=True)


class ResolutionKind(Enum):
    LEAF = "leaf"
    INTERNAL = "internal"
    NOT_FOUND = "not-found"


@dataclass(frozen=True)
class Resolution:
    kind: ResolutionKind
    node: PatternNode | None = None
    # Index of the first element that fails to match, for NOT_FOUND.
    failed_index: int | None = None


def resolve_path(catalog: PatternCatalog, path: PatternPath) -> Resolution:
    """Walk ``path`` through ``catalog``.

    Returns a LEAF resolution when every element matches and the final
    node is childless, INTERNAL when the chain matches but the final node
    has children, and NOT_FOUND with the index of the first element that
    fails to match otherwise.
    """
    if path.unassigned or not path.elements:
        raise EmptyPathError("cannot resolve an empty or unassigned path")
    siblings = catalog.roots
    for index, name in enumerate(path.elements):
        node = _find(siblings, name)
        if node is None:
            return Resolution(ResolutionKind.NOT_FOUND, failed_index=index)
        siblings = node.children
    kind = ResolutionKind.LEAF if node.is_leaf else ResolutionKind.INTERNAL
    return Resolution(kind, node=node)


def render_chain(path: PatternPath) -> str:
    """Render a path as the conventional root-to-leaf text block.

    Line 0 is the root name at column 0; line k is indented 4*(k-1)
    spaces followed by the four characters backquote-dash-dash-space and
    the element name. Lines are joined with a single newline and there is
    no trailing newline.
    """
    if path.unassigned or not path.elements:
        raise NotRenderableError("nothing to render for an empty or unassigned path")
    lines = [path.elements[0]]
    for depth, name in enumerate(path.elements[1:]):
        lines.append(" " * (4 * depth) + "`-- " + name)
    return "\n".join(lines)


def render_tree(catalog: PatternCatalog) -> str:
    """Render a whole catalog, siblings included.

    Non-last siblings are prefixed "|-- " and pass "|   " down to their
    descendants; last siblings are prefixed "`-- " and pass four spaces.
    Roots sit at column 0. A single-chain catalog renders identically to
    render_chain of that chain.
    """
    lines: list[str] = []

    def walk(node: PatternNode, continuation: str) -> None:
        for i, child in enumerate(node.children):
            last = i == len(node.children) - 1
            lines.append(continuation + ("`-- " if last else "|-- ") + child.name)
            walk(child, continuation + ("    " if last else "|   "))

    for root in catalog.roots:
        lines.append(root.name)
        walk(root, "")
    return "\n".join(lines)


def extend_catalog(catalog: PatternCatalog, parent: PatternPath, name: str) -> PatternCatalog:
    """Return a copy of ``catalog`` with a new childless node under ``parent``.

    The input catalog is left untouched. Raises ParentNotFoundError when
    the parent path does not resolve, DuplicateChildError when the parent
    already has a child of that name, InvalidNameError for a malformed
    name, and TaxonomyError when the new node would sit deeper than
    MAX_DEPTH.
    """
    check_name(name)
    target = resolve_path(catalog, parent).node
    if target is None:
        raise ParentNotFoundError(f"parent path not in catalog: {parent.text}")
    if _find(target.children, name) is not None:
        raise DuplicateChildError(f"{target.name!r} already has a child named {name!r}")

    def rebuild(siblings: tuple[PatternNode, ...], depth: int) -> tuple[PatternNode, ...]:
        """``siblings`` at ``depth`` of the parent path, the new node added
        below the one on the path."""
        if depth == len(parent.elements):
            return siblings + (PatternNode(name),)
        head = parent.elements[depth]
        return tuple(
            PatternNode(node.name, rebuild(node.children, depth + 1))
            if node.name == head else node
            for node in siblings
        )

    return PatternCatalog(roots=rebuild(catalog.roots, 0), label=catalog.label)


def _chains(catalog: PatternCatalog, leaves_only: bool) -> list[tuple[str, ...]]:
    """The name chain of every node (or only of every leaf), depth-first
    in author order."""
    chains: list[tuple[str, ...]] = []

    def walk(node: PatternNode, prefix: tuple[str, ...]) -> None:
        chain = prefix + (node.name,)
        if not (leaves_only and node.children):
            chains.append(chain)
        for child in node.children:
            walk(child, chain)

    for root in catalog.roots:
        walk(root, ())
    return chains


def list_leaves(catalog: PatternCatalog) -> list[PatternPath]:
    """Every root-to-leaf path exactly once, in depth-first author order."""
    return [PatternPath(elements=chain) for chain in _chains(catalog, leaves_only=True)]


def iter_node_paths(catalog: PatternCatalog) -> list[PatternPath]:
    """Every root-to-node path (leaves and internals), depth-first."""
    return [PatternPath(elements=chain) for chain in _chains(catalog, leaves_only=False)]


def _chain(*names: str) -> PatternNode:
    node = PatternNode(names[-1])
    for name in reversed(names[:-1]):
        node = PatternNode(name, (node,))
    return node


def seed_catalog() -> PatternCatalog:
    """The built-in starter catalog.

    It contains exactly the storage- and timing-channel chains that the
    worked example descriptions classify against; richer catalogs are
    loaded from user-supplied catalog files.
    """
    storage = PatternNode(
        "Network Covert Storage Channels",
        (
            PatternNode(
                "Modification of Non-Payload",
                (
                    _chain(
                        "Structure Preserving",
                        "Modification of an Attribute",
                        "Value Modulation",
                        "Least Significant Bit (LSB)",
                    ),
                    _chain(
                        "Structure Modifying",
                        "Sequence Pattern",
                        "Number of Elements Pattern",
                    ),
                ),
            ),
        ),
    )
    timing = PatternNode(
        "Network Covert Timing Channels",
        (PatternNode("Inter-arrival Time Pattern"),),
    )
    return PatternCatalog(roots=(storage, timing), label="seed")
