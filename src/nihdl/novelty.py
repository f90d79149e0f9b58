"""Novelty assessment and the five-step review workflow.

A description whose pattern path resolves to a catalog leaf reports new
results under an existing pattern (a small-c contribution). A path whose
tail is unknown, with each unknown element justified, proposes a new
pattern (a Big-C candidate); accepting the candidate extends the catalog
with one node, after which reassessment yields small-c. Unknown elements
without justification are rejected: a new pattern requires a detailed
explanation.

The review workflow is a finite state machine aligned with peer review:
submissions go under review, acceptance as Big-C passes through a
pattern-optimization step that small-c acceptance skips, and rejection
returns the work to the idea stage.
"""

from __future__ import annotations

from enum import Enum

from .diagnostics import value_class
from .model import MethodDescription
from .taxonomy import (
    PatternCatalog,
    PatternPath,
    ResolutionKind,
    extend_catalog,
    resolve_path,
)


@value_class
class NoveltyVerdict:
    def render(self) -> str:
        raise NotImplementedError


@value_class
class SmallC(NoveltyVerdict):
    path: PatternPath

    def render(self) -> str:
        return f"small-c: {self.path.text}"


@value_class
class BigCCandidate(NoveltyVerdict):
    parent: PatternPath
    proposed_name: str
    justification: str

    def __post_init__(self) -> None:
        if not self.justification.strip():
            raise ValueError("a Big-C candidate requires a justification")

    def render(self) -> str:
        return f'Big-C candidate: {self.parent.text} + "{self.proposed_name}"'


@value_class
class Rejected(NoveltyVerdict):
    reason: str

    def render(self) -> str:
        return f"rejected: {self.reason}"


def assess(d: MethodDescription, catalog: PatternCatalog) -> NoveltyVerdict:
    """Classify a description as small-c, Big-C candidate, or rejected.

    The Big-C parent is the longest resolvable prefix of the stated path
    and the proposed name its first unresolved element; multi-level new
    subtrees take one accepted proposal per level.
    """
    path = d.pattern.path
    if path.unassigned:
        return Rejected("path is unassigned; novelty assessment needs a pattern path")
    resolution = resolve_path(catalog, path)
    if resolution.kind is ResolutionKind.LEAF:
        return SmallC(path)
    if resolution.kind is ResolutionKind.INTERNAL:
        return Rejected(
            f"path stops at internal pattern {path.elements[-1]!r}; "
            "extend it to a leaf or propose a new sub-pattern"
        )
    index = resolution.failed_index
    assert index is not None
    if index == 0:
        return Rejected(f"unknown root pattern {path.elements[0]!r}")
    justified = d.pattern.justified
    for element in path.elements[index:]:
        if element not in justified:
            return Rejected("new pattern requires detailed explanation")
    return BigCCandidate(
        parent=PatternPath(elements=path.elements[:index]),
        proposed_name=path.elements[index],
        justification=justified[path.elements[index]],
    )


def accept_big_c(catalog: PatternCatalog, verdict: BigCCandidate) -> PatternCatalog:
    """Extend the catalog with the accepted candidate's node.

    After acceptance, assessing the same description against the returned
    catalog yields small-c (or the next Big-C level for multi-level
    proposals)."""
    return extend_catalog(catalog, verdict.parent, verdict.proposed_name)


class ContributionKind(Enum):
    SMALL_C = "small-c"
    BIG_C = "Big-C"


class WorkflowStage(Enum):
    PATTERN_DATABASE_READY = "pattern-database-ready"
    IDEA_CREATED = "idea-created"
    UNDER_REVIEW = "under-review"
    PATTERN_OPTIMIZATION = "pattern-optimization"
    PUBLISHED = "published"


class WorkflowEvent(Enum):
    START_IDEA = "start-idea"
    SUBMIT_DRAFT = "submit-draft"
    REVIEW_ACCEPT_BIG_C = "review-accept-big-c"
    REVIEW_ACCEPT_SMALL_C = "review-accept-small-c"
    REVIEW_REJECT = "review-reject"
    FINISH_OPTIMIZATION = "finish-optimization"


@value_class
class WorkflowState:
    stage: WorkflowStage
    published_as: ContributionKind | None = None

    def __post_init__(self) -> None:
        if (self.published_as is not None) != (self.stage is WorkflowStage.PUBLISHED):
            raise ValueError("published_as is set exactly for the published stage")

    def render(self) -> str:
        if self.stage is WorkflowStage.PUBLISHED:
            return f"published({self.published_as.value})"
        return self.stage.value


class UndefinedTransitionError(Exception):
    def __init__(self, state: WorkflowState, event: WorkflowEvent) -> None:
        super().__init__(f"no transition for event {event.value} in state {state.render()}")
        self.state = state
        self.event = event


_PUBLISHED_SMALL = WorkflowState(WorkflowStage.PUBLISHED, ContributionKind.SMALL_C)
_PUBLISHED_BIG = WorkflowState(WorkflowStage.PUBLISHED, ContributionKind.BIG_C)

# Submitting a draft implicitly puts it under review, so SUBMIT_DRAFT
# lands in UNDER_REVIEW straight from the idea stage.
_TRANSITIONS: dict[tuple[WorkflowStage, WorkflowEvent], WorkflowState] = {
    (WorkflowStage.PATTERN_DATABASE_READY, WorkflowEvent.START_IDEA):
        WorkflowState(WorkflowStage.IDEA_CREATED),
    (WorkflowStage.IDEA_CREATED, WorkflowEvent.SUBMIT_DRAFT):
        WorkflowState(WorkflowStage.UNDER_REVIEW),
    (WorkflowStage.UNDER_REVIEW, WorkflowEvent.REVIEW_ACCEPT_BIG_C):
        WorkflowState(WorkflowStage.PATTERN_OPTIMIZATION),
    (WorkflowStage.UNDER_REVIEW, WorkflowEvent.REVIEW_ACCEPT_SMALL_C):
        _PUBLISHED_SMALL,
    (WorkflowStage.UNDER_REVIEW, WorkflowEvent.REVIEW_REJECT):
        WorkflowState(WorkflowStage.IDEA_CREATED),
    (WorkflowStage.PATTERN_OPTIMIZATION, WorkflowEvent.FINISH_OPTIMIZATION):
        _PUBLISHED_BIG,
}


def advance(state: WorkflowState, event: WorkflowEvent) -> WorkflowState:
    """The successor state, or UndefinedTransitionError for undefined pairs.

    Published states are terminal. Big-C acceptance passes through the
    pattern-optimization stage; small-c acceptance publishes immediately,
    skipping it."""
    try:
        return _TRANSITIONS[(state.stage, event)]
    except KeyError:
        raise UndefinedTransitionError(state, event) from None
