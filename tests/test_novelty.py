"""Novelty verdicts, catalog acceptance and the review state machine."""

import dataclasses
import itertools

import pytest

from nihdl import model
from nihdl.novelty import (
    BigCCandidate,
    ContributionKind,
    Rejected,
    SmallC,
    UndefinedTransitionError,
    WorkflowEvent,
    WorkflowStage,
    WorkflowState,
    accept_big_c,
    advance,
    assess,
)
from nihdl.taxonomy import (
    DuplicateChildError,
    ParentNotFoundError,
    PatternPath,
    ResolutionKind,
    UNASSIGNED,
    list_leaves,
    resolve_path,
)


def with_path(method, path, justify=()):
    justifications = tuple(model.Justification(e, r) for e, r in justify)
    return dataclasses.replace(
        method, pattern=model.PatternAssignment(path=path, justifications=justifications)
    )


RATE_PATH = PatternPath(("Network Covert Timing Channels", "Rate Pattern"))


class TestAssess:
    def test_dhcp_fixture_is_small_c(self, dhcp_method, catalog):
        verdict = assess(dhcp_method, catalog)
        assert isinstance(verdict, SmallC)
        assert verdict.path == dhcp_method.pattern.path

    def test_every_seed_leaf_yields_small_c(self, gap_method, catalog):
        for leaf in list_leaves(catalog):
            justify = [(e, "fits") for e in leaf.elements]
            verdict = assess(with_path(gap_method, leaf, justify), catalog)
            assert isinstance(verdict, SmallC)

    def test_justified_new_leaf_is_big_c_candidate(self, gap_method, catalog):
        draft = with_path(gap_method, RATE_PATH, [("Rate Pattern", "rate-based signaling")])
        verdict = assess(draft, catalog)
        assert isinstance(verdict, BigCCandidate)
        assert verdict.parent == PatternPath.from_text("Network Covert Timing Channels")
        assert verdict.proposed_name == "Rate Pattern"
        assert verdict.justification == "rate-based signaling"

    def test_unjustified_new_leaf_is_rejected(self, gap_method, catalog):
        draft = with_path(gap_method, RATE_PATH)
        verdict = assess(draft, catalog)
        assert isinstance(verdict, Rejected)
        assert "detailed explanation" in verdict.reason

    def test_unassigned_is_rejected(self, gap_method, catalog):
        draft = dataclasses.replace(
            gap_method,
            pattern=model.PatternAssignment(
                path=UNASSIGNED,
                justifications=(model.Justification("scope", "cross-cutting"),),
            ),
        )
        assert isinstance(assess(draft, catalog), Rejected)

    def test_internal_path_is_rejected(self, gap_method, catalog):
        draft = with_path(
            gap_method,
            PatternPath.from_text("Network Covert Storage Channels"),
            [("Network Covert Storage Channels", "stored values")],
        )
        assert isinstance(assess(draft, catalog), Rejected)

    def test_unknown_root_is_rejected(self, gap_method, catalog):
        draft = with_path(
            gap_method,
            PatternPath(("Quantum Channels", "Qubit Pattern")),
            [("Quantum Channels", "x"), ("Qubit Pattern", "y")],
        )
        verdict = assess(draft, catalog)
        assert isinstance(verdict, Rejected)

    def test_multi_level_proposal_names_the_first_unknown(self, gap_method, catalog):
        path = PatternPath((
            "Network Covert Timing Channels", "Rate Pattern", "Burst Sub-pattern"
        ))
        draft = with_path(
            gap_method, path,
            [("Rate Pattern", "rates"), ("Burst Sub-pattern", "bursts")],
        )
        verdict = assess(draft, catalog)
        assert isinstance(verdict, BigCCandidate)
        assert verdict.proposed_name == "Rate Pattern"


class TestAcceptBigC:
    def test_acceptance_makes_reassessment_small_c(self, gap_method, catalog):
        draft = with_path(gap_method, RATE_PATH, [("Rate Pattern", "rates")])
        verdict = assess(draft, catalog)
        extended = accept_big_c(catalog, verdict)
        assert isinstance(assess(draft, extended), SmallC)

    def test_accept_twice_fails(self, gap_method, catalog):
        draft = with_path(gap_method, RATE_PATH, [("Rate Pattern", "rates")])
        verdict = assess(draft, catalog)
        extended = accept_big_c(catalog, verdict)
        with pytest.raises(DuplicateChildError):
            accept_big_c(extended, verdict)

    def test_unresolvable_parent(self, catalog):
        candidate = BigCCandidate(
            parent=PatternPath.from_text("Missing Root"),
            proposed_name="Child",
            justification="x",
        )
        with pytest.raises(ParentNotFoundError):
            accept_big_c(catalog, candidate)

    def test_candidate_requires_justification(self):
        with pytest.raises(ValueError):
            BigCCandidate(parent=PatternPath.from_text("A"), proposed_name="B", justification=" ")

    def test_prior_resolutions_survive(self, gap_method, catalog):
        draft = with_path(gap_method, RATE_PATH, [("Rate Pattern", "rates")])
        extended = accept_big_c(catalog, assess(draft, catalog))
        for leaf in list_leaves(catalog):
            assert resolve_path(extended, leaf).kind is ResolutionKind.LEAF


class TestVerdictRendering:
    def test_small_c(self, dhcp_method, catalog):
        assert assess(dhcp_method, catalog).render() == (
            "small-c: Network Covert Storage Channels / Modification of Non-Payload"
            " / Structure Modifying / Sequence Pattern / Number of Elements Pattern"
        )

    def test_big_c(self, gap_method, catalog):
        draft = with_path(gap_method, RATE_PATH, [("Rate Pattern", "rates")])
        assert assess(draft, catalog).render() == (
            'Big-C candidate: Network Covert Timing Channels + "Rate Pattern"'
        )

    def test_rejected(self, gap_method, catalog):
        draft = with_path(gap_method, RATE_PATH)
        assert assess(draft, catalog).render().startswith("rejected: ")


class TestWorkflow:
    def test_happy_path_small_c(self):
        state = WorkflowState(WorkflowStage.PATTERN_DATABASE_READY)
        state = advance(state, WorkflowEvent.START_IDEA)
        state = advance(state, WorkflowEvent.SUBMIT_DRAFT)
        assert state.stage is WorkflowStage.UNDER_REVIEW
        state = advance(state, WorkflowEvent.REVIEW_ACCEPT_SMALL_C)
        assert state.stage is WorkflowStage.PUBLISHED
        assert state.published_as is ContributionKind.SMALL_C

    def test_big_c_passes_through_optimization(self):
        state = WorkflowState(WorkflowStage.PATTERN_DATABASE_READY)
        state = advance(state, WorkflowEvent.START_IDEA)
        state = advance(state, WorkflowEvent.SUBMIT_DRAFT)
        state = advance(state, WorkflowEvent.REVIEW_ACCEPT_BIG_C)
        assert state.stage is WorkflowStage.PATTERN_OPTIMIZATION
        state = advance(state, WorkflowEvent.FINISH_OPTIMIZATION)
        assert state.published_as is ContributionKind.BIG_C

    def test_reject_returns_to_idea(self):
        state = WorkflowState(WorkflowStage.UNDER_REVIEW)
        assert advance(state, WorkflowEvent.REVIEW_REJECT).stage is \
            WorkflowStage.IDEA_CREATED

    def test_published_is_terminal(self):
        published = WorkflowState(WorkflowStage.PUBLISHED, ContributionKind.SMALL_C)
        with pytest.raises(UndefinedTransitionError):
            advance(published, WorkflowEvent.SUBMIT_DRAFT)

    def test_all_pairs_either_advance_or_raise(self):
        states = [
            WorkflowState(stage) for stage in WorkflowStage
            if stage is not WorkflowStage.PUBLISHED
        ] + [
            WorkflowState(WorkflowStage.PUBLISHED, ContributionKind.SMALL_C),
            WorkflowState(WorkflowStage.PUBLISHED, ContributionKind.BIG_C),
        ]
        defined = 0
        for state, event in itertools.product(states, WorkflowEvent):
            try:
                advance(state, event)
                defined += 1
            except UndefinedTransitionError:
                pass
        assert defined == 6

    def test_published_state_invariant(self):
        with pytest.raises(ValueError):
            WorkflowState(WorkflowStage.PUBLISHED)
        with pytest.raises(ValueError):
            WorkflowState(WorkflowStage.IDEA_CREATED, ContributionKind.SMALL_C)
