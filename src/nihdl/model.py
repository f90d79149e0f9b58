"""Domain types for a hiding-method description.

A description has three top-level parts: general information (pattern
assignment, application scenario, carrier requirements), the hiding
process (sender, receiver, channel properties, optional control
protocol) and countermeasures. All types are immutable values, made by
``diagnostics.value_class``: each class compiles only its ``__init__``, and
takes ``==``, ``hash``, ``repr`` and the refusal to assign or delete a field
from code written once there. They are dataclasses to ``dataclasses.fields``,
``replace`` and ``asdict``, but nothing here imports that module. ``==``,
``hash`` and ``repr`` read every field but ``MethodDescription.location``.

Constructors refuse, with the message the parser reports, a value that
breaks a rule of the file format; each such rule is checked and worded here
only. A set-valued field (a channel's scenarios, a control protocol's
features) is a tuple of distinct members in vocabulary order, fixed by the
constructor from any iterable of members. Everything a lint rule covers
(empty intermediary requirements, missing metric blocks, ...) stays
representable and is reported by validate.
"""

from __future__ import annotations

from enum import Enum, IntEnum

from .diagnostics import field, value_class
from .taxonomy import PatternPath


class Presence(IntEnum):
    """How completely an attribute is described. Ordered: ABSENT < PARTIAL < FULL."""

    ABSENT = 0
    PARTIAL = 1
    FULL = 2


@value_class
class SharedGroup:
    """Label tying together attributes that one publication describes jointly."""

    label: str

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("shared-with label must be non-empty")


@value_class
class Justification:
    element: str
    rationale: str


def check_justified(path: PatternPath, element: str) -> None:
    if not path.unassigned and element not in path.elements:
        raise ValueError(f"justify names {element!r}, which is not on the path")


@value_class
class PatternAssignment:
    path: PatternPath
    justifications: tuple[Justification, ...] = ()

    def __post_init__(self) -> None:
        for j in self.justifications:
            check_justified(self.path, j.element)

    @property
    def justified(self) -> dict[str, str]:
        """Each justified element's rationale; a blank rationale justifies nothing."""
        return {j.element: j.rationale for j in self.justifications if j.rationale.strip()}


class Purpose(Enum):
    GENERAL_PURPOSE = "general-purpose"
    ANONYMIZATION_BREAKING = "anonymization-breaking"
    PORT_KNOCKING = "port-knocking"
    TRACEBACK_WATERMARKING = "traceback-watermarking"
    GAME_CHEATING = "game-cheating"
    MALWARE_C2_EXFILTRATION = "malware-c2-exfiltration"
    OTHER = "other"


@value_class
class ApplicationScenario:
    presence: Presence
    purpose: Purpose | None = None
    shared: SharedGroup | None = None
    text: str | None = None


class BindingKind(Enum):
    SINGLE_PROTOCOL = "single-protocol"
    PROTOCOL_SET = "protocol-set"
    FEATURE_BASED = "feature-based"
    GENERIC = "generic"
    UNSPECIFIED = "unspecified"


@value_class
class CarrierBinding:
    """What carrier the method needs: one protocol, a set, features, or any."""

    kind: BindingKind
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind is BindingKind.SINGLE_PROTOCOL and len(self.names) != 1:
            raise ValueError("single-protocol takes exactly one protocol")
        if self.kind is BindingKind.PROTOCOL_SET and len(self.names) < 2:
            raise ValueError("protocol-set requires at least two protocols")
        if self.kind is BindingKind.FEATURE_BASED and len(self.names) < 1:
            raise ValueError("feature-based binding carries at least one feature")
        if self.kind in (BindingKind.GENERIC, BindingKind.UNSPECIFIED) and self.names:
            raise ValueError(f"{self.kind.value} binding carries no names")


@value_class
class CarrierRequirements:
    presence: Presence
    binding: CarrierBinding = CarrierBinding(BindingKind.UNSPECIFIED)
    conditions: tuple[str, ...] = ()
    shared: SharedGroup | None = None
    text: str | None = None


class Relation(Enum):
    ONE_TO_ONE = "1:1"
    ONE_TO_MANY = "1:m"
    MANY_TO_ONE = "n:1"
    MANY_TO_MANY = "n:m"
    UNSPECIFIED = "unspecified"


class Location(Enum):
    CENTRALIZED = "centralized"
    DISTRIBUTED = "distributed"
    UNSPECIFIED = "unspecified"


class Tristate(Enum):
    YES = "true"
    NO = "false"
    UNSPECIFIED = "unspecified"


@value_class
class SenderProcess:
    relation: Relation = Relation.UNSPECIFIED
    location: Location = Location.UNSPECIFIED
    data_location: Location = Location.UNSPECIFIED
    generates_cover: Tristate = Tristate.UNSPECIFIED
    text: str | None = None


@value_class
class ReceiverProcess:
    location: Location = Location.UNSPECIFIED
    text: str | None = None


class ChannelScenario(Enum):
    END_TO_END = "end-to-end"
    MITM = "mitm"
    HYBRID = "hybrid"


class DirectnessKind(Enum):
    DIRECT = "direct"
    INDIRECT = "indirect"
    UNSPECIFIED = "unspecified"


@value_class
class Directness:
    kind: DirectnessKind
    # Requirements on the unwitting intermediary; meaningful for INDIRECT.
    requirements: str = ""

    def __post_init__(self) -> None:
        if self.kind is not DirectnessKind.INDIRECT and self.requirements:
            raise ValueError("only indirect channels carry intermediary requirements")

    @property
    def undescribed_intermediary(self) -> bool:
        """Indirect, with blank intermediary requirements."""
        return self.kind is DirectnessKind.INDIRECT and not self.requirements.strip()


@value_class
class ChannelCharacteristic:
    """One of the four classic channel metrics (bandwidth, undetectability,
    robustness, cost)."""

    presence: Presence
    value: str | None = None
    refers_to_countermeasures: bool = False
    shared: SharedGroup | None = None
    text: str | None = None


@value_class
class ChannelProperties:
    scenarios: tuple[ChannelScenario, ...]
    directness: Directness
    bandwidth: ChannelCharacteristic | None = None
    undetectability: ChannelCharacteristic | None = None
    robustness: ChannelCharacteristic | None = None
    cost: ChannelCharacteristic | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", _in_order(self.scenarios, ChannelScenario))
        if not self.scenarios:
            raise ValueError("at least one communication scenario is required")
        if any(metric is not None and metric.refers_to_countermeasures
               for metric in (self.bandwidth, self.robustness, self.cost)):
            raise ValueError(
                "ref: countermeasures is only allowed on the undetectability metric")

    def metrics(self) -> dict[str, ChannelCharacteristic | None]:
        return {
            "bandwidth": self.bandwidth,
            "undetectability": self.undetectability,
            "robustness": self.robustness,
            "cost": self.cost,
        }


class ControlFeature(Enum):
    RELIABILITY = "reliability"
    PEER_DISCOVERY = "peer-discovery"
    DYNAMIC_ROUTING = "dynamic-routing"
    SESSION_MANAGEMENT = "session-management"
    ADAPTIVENESS = "adaptiveness"
    APP_LAYER = "app-layer"


_MEMBERS = {vocabulary: tuple(vocabulary) for vocabulary in (ChannelScenario, ControlFeature)}


def _in_order(values, vocabulary: type[Enum]) -> tuple:
    """Each of ``values`` once, in declaration order; a non-member is refused."""
    values = tuple(values)
    # Scanned, not hashed: an Enum member's __hash__ runs Python code.
    ordered = tuple([member for member in _MEMBERS[vocabulary] if member in values])
    if len(ordered) != len(values) and (strays := [v for v in values if v not in ordered]):
        raise ValueError(f"{strays[0]!r} is not a {vocabulary.__name__}")
    return ordered


def check_features(presence: Presence, features) -> None:
    if presence is Presence.ABSENT and features:
        raise ValueError("an absent control protocol cannot list features")


@value_class
class ControlProtocol:
    presence: Presence
    features: tuple[ControlFeature, ...] = ()
    text: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", _in_order(self.features, ControlFeature))
        check_features(self.presence, self.features)


class CountermeasureKind(Enum):
    # Declaration order is the canonical order of countermeasure entries.
    ELIMINATION = "elimination"
    LIMITATION = "limitation"
    DETECTION = "detection"
    PROTOCOL_REVISION = "protocol-revision"


class Applicability(Enum):
    APPLICABLE = "applicable"
    NOT_APPLICABLE = "not-applicable"


@value_class
class CountermeasureEntry:
    kind: CountermeasureKind
    applicability: Applicability
    evaluated: bool = False
    limitations: str | None = None
    text: str | None = None


class WardenState(Enum):
    STATEFUL = "stateful"
    STATELESS = "stateless"
    UNSPECIFIED = "unspecified"


class WardenActivity(Enum):
    ACTIVE = "active"
    PASSIVE = "passive"
    UNSPECIFIED = "unspecified"


@value_class
class WardenProfile:
    placement: Location = Location.UNSPECIFIED
    state: WardenState = WardenState.UNSPECIFIED
    activity: WardenActivity = WardenActivity.UNSPECIFIED


YEAR_MIN = 1980
YEAR_MAX = 2100


def check_year(year: int | str) -> int:
    """``year`` if an int in range; a number too long for int() comes as its digits."""
    if not isinstance(year, int) or not YEAR_MIN <= year <= YEAR_MAX:
        raise ValueError(f"year out of range {YEAR_MIN}-{YEAR_MAX}: {year}")
    return year


@value_class
class MethodDescription:
    name: str
    pattern: PatternAssignment
    carrier: CarrierRequirements
    sender: SenderProcess
    receiver: ReceiverProcess
    channel: ChannelProperties
    source: str | None = None
    year: int | None = None
    scenario: ApplicationScenario | None = None
    control_protocol: ControlProtocol | None = None
    countermeasures: tuple[CountermeasureEntry, ...] = ()
    warden: WardenProfile | None = None
    # Where the method block starts in its source file, when parsed.
    # Excluded from equality so round-tripping compares content only.
    location: object | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("method name must be non-empty")
        if self.year is not None:
            check_year(self.year)
        # The coverage row is derived from the fields, so it is kept as a
        # plain attribute: not a field, and left out of ==, hash and repr.
        # It is stored here, not through functools.cached_property: on
        # Python 3.11 that reads the instance's __dict__, which gives up its
        # inline attribute values, and attribute reads on 800 methods then
        # took 3-4x longer. Over three alternating 10 s `analytics` pairs
        # (Python 3.11.7, 2 vCPUs) methods_per_s fell from 48,869 / 51,412 /
        # 48,817 to 46,964 / 46,213 / 44,450, and p50 rose in all three.
        object.__setattr__(self, "_coverage", _coverage_row(self))


class TrackedAttribute(Enum):
    """The six attributes whose coverage the corpus analytics track."""

    APPLICATION_SCENARIO = "application-scenario"
    CARRIER_REQUIREMENTS = "carrier-requirements"
    COUNTERMEASURES = "countermeasures"
    BANDWIDTH = "bandwidth"
    ROBUSTNESS = "robustness"
    CONTROL_PROTOCOL = "control-protocol"

    @property
    def key(self) -> str:
        return self.value


CoverageRow = tuple[tuple[Presence, SharedGroup | None], ...]
_ABSENT = (Presence.ABSENT, None)


def coverage(d: MethodDescription) -> CoverageRow:
    """Presence of each tracked attribute, plus its combined-description
    group, in TrackedAttribute order: one coverage row.

    Optional blocks that are missing count as ABSENT. Countermeasure
    presence is derived from the entries: FULL once at least one entry was
    evaluated, PARTIAL when entries exist but none was, ABSENT without
    entries. Countermeasures and the control protocol carry no group.
    The row is computed once, when the description is built.
    """
    return d._coverage


def _coverage_row(d: MethodDescription) -> CoverageRow:
    bandwidth = d.channel.bandwidth
    robustness = d.channel.robustness
    if not d.countermeasures:
        countermeasures = _ABSENT
    elif any(entry.evaluated for entry in d.countermeasures):
        countermeasures = (Presence.FULL, None)
    else:
        countermeasures = (Presence.PARTIAL, None)
    return (
        _ABSENT if d.scenario is None else (d.scenario.presence, d.scenario.shared),
        (d.carrier.presence, d.carrier.shared),
        countermeasures,
        _ABSENT if bandwidth is None else (bandwidth.presence, bandwidth.shared),
        _ABSENT if robustness is None else (robustness.presence, robustness.shared),
        _ABSENT if d.control_protocol is None else (d.control_protocol.presence, None),
    )


def normalize(d: MethodDescription) -> MethodDescription:
    """Canonical ordering: countermeasure entries by kind (elimination,
    limitation, detection, protocol revision; stable within a kind) and
    justifications by their element's position on the path. Idempotent."""
    kinds = list(CountermeasureKind)
    entries = tuple(sorted(d.countermeasures, key=lambda e: kinds.index(e.kind)))
    pattern = d.pattern
    if not pattern.path.unassigned:
        position = {name: i for i, name in enumerate(pattern.path.elements)}
        justifications = tuple(
            sorted(pattern.justifications, key=lambda j: position[j.element])
        )
        pattern = PatternAssignment(pattern.path, justifications)
    return MethodDescription(d.name, pattern, d.carrier, d.sender, d.receiver, d.channel,
                             d.source, d.year, d.scenario, d.control_protocol, entries,
                             d.warden, d.location)
