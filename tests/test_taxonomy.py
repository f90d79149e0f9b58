"""Catalog resolution, rendering and extension."""

import re
from pathlib import Path

import pytest

from nihdl.taxonomy import (
    DuplicateChildError,
    MAX_DEPTH,
    InvalidNameError,
    ParentNotFoundError,
    PatternCatalog,
    PatternNode,
    PatternPath,
    ResolutionKind,
    TaxonomyError,
    UNASSIGNED,
    extend_catalog,
    list_leaves,
    render_chain,
    render_tree,
    resolve_path,
)

GOLDEN = Path(__file__).parent / "golden"

TIMING_PATH = PatternPath((
    "Network Covert Timing Channels", "Inter-arrival Time Pattern"
))
DHCP_PATH = PatternPath((
    "Network Covert Storage Channels",
    "Modification of Non-Payload",
    "Structure Modifying",
    "Sequence Pattern",
    "Number of Elements Pattern",
))
LSB_PATH = PatternPath((
    "Network Covert Storage Channels",
    "Modification of Non-Payload",
    "Structure Preserving",
    "Modification of an Attribute",
    "Value Modulation",
    "Least Significant Bit (LSB)",
))


class TestResolvePath:
    def test_timing_leaf(self, catalog):
        assert resolve_path(catalog, TIMING_PATH).kind is ResolutionKind.LEAF

    def test_dhcp_leaf(self, catalog):
        assert resolve_path(catalog, DHCP_PATH).kind is ResolutionKind.LEAF

    def test_internal_node(self, catalog):
        res = resolve_path(catalog, PatternPath.from_text("Network Covert Storage Channels"))
        assert res.kind is ResolutionKind.INTERNAL

    def test_not_found_reports_first_failing_index(self, catalog):
        res = resolve_path(
            catalog,
            PatternPath(("Network Covert Storage Channels", "Inter-arrival Time Pattern")),
        )
        assert res.kind is ResolutionKind.NOT_FOUND
        assert res.failed_index == 1

    def test_unknown_root_fails_at_index_zero(self, catalog):
        res = resolve_path(catalog, PatternPath.from_text("No Such Root"))
        assert res.kind is ResolutionKind.NOT_FOUND
        assert res.failed_index == 0

    def test_empty_path_is_an_error(self, catalog):
        with pytest.raises(TaxonomyError,
                           match="^cannot resolve an empty or unassigned path$"):
            resolve_path(catalog, PatternPath())

    def test_unassigned_is_an_error(self, catalog):
        with pytest.raises(TaxonomyError,
                           match="^cannot resolve an empty or unassigned path$"):
            resolve_path(catalog, UNASSIGNED)


class TestRenderChain:
    def test_lsb_block(self):
        assert render_chain(LSB_PATH) == (
            "Network Covert Storage Channels\n"
            "`-- Modification of Non-Payload\n"
            "    `-- Structure Preserving\n"
            "        `-- Modification of an Attribute\n"
            "            `-- Value Modulation\n"
            "                `-- Least Significant Bit (LSB)"
        )

    def test_single_element(self):
        assert render_chain(PatternPath.from_text("X")) == "X"

    def test_line_count_and_name_recovery(self):
        lines = render_chain(DHCP_PATH).split("\n")
        assert len(lines) == len(DHCP_PATH.elements)
        recovered = [lines[0]] + [line.lstrip(" ")[4:] for line in lines[1:]]
        assert recovered == list(DHCP_PATH.elements)

    def test_unrenderable(self):
        with pytest.raises(TaxonomyError,
                           match="^nothing to render for an empty or unassigned path$"):
            render_chain(UNASSIGNED)
        with pytest.raises(TaxonomyError,
                           match="^nothing to render for an empty or unassigned path$"):
            render_chain(PatternPath())


class TestRenderTree:
    def test_single_chain_matches_render_chain(self):
        node = PatternNode("A", (PatternNode("B", (PatternNode("C"),)),))
        catalog = PatternCatalog(roots=(node,))
        assert render_tree(catalog) == render_chain(PatternPath(("A", "B", "C")))

    def test_two_bare_roots(self):
        catalog = PatternCatalog(roots=(PatternNode("A"), PatternNode("B")))
        assert render_tree(catalog) == "A\nB"

    def test_seed_catalog_golden(self, catalog):
        golden = (GOLDEN / "seed_tree.txt").read_text(encoding="utf-8")
        assert render_tree(catalog) + "\n" == golden


class TestExtendCatalog:
    def test_new_leaf_resolves(self, catalog):
        parent = PatternPath.from_text("Network Covert Timing Channels")
        extended = extend_catalog(catalog, parent, "Rate Pattern")
        new_path = PatternPath(("Network Covert Timing Channels", "Rate Pattern"))
        assert resolve_path(extended, new_path).kind is ResolutionKind.LEAF

    def test_input_catalog_unchanged(self, catalog):
        parent = PatternPath.from_text("Network Covert Timing Channels")
        before = list_leaves(catalog)
        extend_catalog(catalog, parent, "Rate Pattern")
        assert list_leaves(catalog) == before

    def test_duplicate_child(self, catalog):
        parent = PatternPath.from_text("Network Covert Timing Channels")
        with pytest.raises(
            DuplicateChildError,
            match="^duplicate child 'Inter-arrival Time Pattern' "
                  "under 'Network Covert Timing Channels'$",
        ):
            extend_catalog(catalog, parent, "Inter-arrival Time Pattern")

    def test_second_extension_with_same_name_fails(self, catalog):
        parent = PatternPath.from_text("Network Covert Timing Channels")
        extended = extend_catalog(catalog, parent, "Rate Pattern")
        with pytest.raises(DuplicateChildError):
            extend_catalog(extended, parent, "Rate Pattern")

    def test_parent_not_found(self, catalog):
        with pytest.raises(ParentNotFoundError,
                           match="^parent path not in catalog: Nope$"):
            extend_catalog(catalog, PatternPath.from_text("Nope"), "Child")

    def test_node_deeper_than_the_limit(self):
        chain = PatternNode("a")
        for _ in range(MAX_DEPTH - 1):
            chain = PatternNode("a", (chain,))
        deep = PatternCatalog(roots=(chain,))
        leaf = PatternPath(("a",) * MAX_DEPTH)
        assert resolve_path(deep, leaf).kind is ResolutionKind.LEAF
        with pytest.raises(TaxonomyError,
                           match="^catalog nesting deeper than 64: 'b' under 'a'$"):
            extend_catalog(deep, leaf, "b")
        extend_catalog(deep, PatternPath(leaf.elements[:-1]), "b")

    def test_catalog_deeper_than_the_limit_is_refused(self):
        """Refused at level 65, however deep the chain goes: a chain far
        deeper than the recursion limit is not walked to its end."""
        chain = PatternNode("b")
        for _ in range(MAX_DEPTH):
            chain = PatternNode("a", (chain,))
        assert not PatternCatalog(roots=(chain.children[0],)).is_empty
        with pytest.raises(TaxonomyError,
                           match="^catalog nesting deeper than 64: 'b' under 'a'$"):
            PatternCatalog(roots=(chain,))
        for _ in range(5_000):
            chain = PatternNode("a", (chain,))
        with pytest.raises(TaxonomyError,
                           match="^catalog nesting deeper than 64: 'a' under 'a'$"):
            PatternCatalog(roots=(chain,))

    def test_invalid_name(self, catalog):
        parent = PatternPath.from_text("Network Covert Timing Channels")
        for bad in ("", "a/b", " padded ", "line\nfeed", "carriage\rreturn"):
            with pytest.raises(InvalidNameError):
                extend_catalog(catalog, parent, bad)

    def test_prior_resolutions_unchanged(self, catalog):
        parent = PatternPath(("Network Covert Storage Channels",
                              "Modification of Non-Payload"))
        extended = extend_catalog(catalog, parent, "Brand New")
        for leaf in list_leaves(catalog):
            assert resolve_path(extended, leaf).kind is ResolutionKind.LEAF


class TestListLeaves:
    def test_empty_catalog(self):
        assert list_leaves(PatternCatalog()) == []

    def test_contains_both_example_paths(self, catalog):
        leaves = list_leaves(catalog)
        assert TIMING_PATH in leaves
        assert DHCP_PATH in leaves

    def test_count_matches_childless_nodes(self, catalog):
        def childless(node):
            if node.is_leaf:
                return 1
            return sum(childless(c) for c in node.children)

        expected = sum(childless(root) for root in catalog.roots)
        assert len(list_leaves(catalog)) == expected

    def test_every_leaf_resolves_as_leaf(self, catalog):
        for leaf in list_leaves(catalog):
            assert resolve_path(catalog, leaf).kind is ResolutionKind.LEAF


class TestInvariants:
    def test_duplicate_children_rejected(self):
        with pytest.raises(DuplicateChildError, match="^duplicate child 'A' under 'P'$"):
            PatternNode("P", (PatternNode("A"), PatternNode("A")))

    def test_duplicate_roots_rejected(self):
        with pytest.raises(DuplicateChildError, match="^duplicate root 'A'$"):
            PatternCatalog(roots=(PatternNode("A"), PatternNode("A")))

    @pytest.mark.parametrize("label", ["x\ny", "x\ry"])
    def test_a_label_with_a_line_break_is_refused(self, label):
        """Such a label could not be written to a catalog file."""
        message = f"catalog label may not contain a line break: {label!r}"
        with pytest.raises(TaxonomyError, match=f"^{re.escape(message)}$"):
            PatternCatalog(roots=(PatternNode("A"),), label=label)

    def test_name_rules(self):
        with pytest.raises(InvalidNameError):
            PatternNode("")
        with pytest.raises(InvalidNameError):
            PatternNode("with/slash")
        with pytest.raises(InvalidNameError):
            PatternNode(" padded")

    def test_unassigned_path_carries_no_elements(self):
        with pytest.raises(ValueError):
            PatternPath(elements=("X",), unassigned=True)

    def test_path_text_round_trip(self):
        assert PatternPath.from_text(DHCP_PATH.text) == DHCP_PATH
        assert UNASSIGNED.text == "unassigned"
