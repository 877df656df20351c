"""Match flow records against IDS log entries and assign classes.

A flow matches an entry when every non-null attribute of the entry equals
the flow's corresponding attribute (protocol plays no part).  Among all
matching entries the winner is the maximum under (L, weight, earlier file
position).  Classes: no match = normal, winner with L=1 = unsure, winner
with L>1 = anomaly.

MatchIndex holds one hash map per non-empty subset of {dip, sip, dport,
sport} (tuple space search); an entry lives in the map of exactly its
non-null subset.  The maps are probed in precedence order, so a lookup
stops at the first hit and probes at most fifteen maps instead of
scanning the log.  Labeling is serial and streams: one flow in, one
labeled flow out.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter

from .flow_builder import FlowKey, FlowRecord
from .mawilab_log import IdsLogEntry, precedence_key, specificity

CLASS_NORMAL = "normal"
CLASS_ANOMALY = "anomaly"
CLASS_UNSURE = "unsure"

# Subset masks of {dip, sip, dport, sport}, bit 8 = dip down to bit 1 =
# sport, in precedence order: more attributes first, then the higher
# weight.  An entry's (L, weight) is (popcount, mask) of its own mask, so
# the first table in this order that holds the flow's projection holds
# the winner.
_MASKS = tuple(sorted(range(1, 16), key=lambda m: (m.bit_count(), m), reverse=True))


def _projection(names):
    """Getter for the values of `names` as a tuple (a 1-tuple for one)."""
    get = attrgetter(*names)
    if len(names) == 1:
        return lambda obj: (get(obj),)
    return get


def _projections(names):
    return {m: _projection([n for bit, n in zip((8, 4, 2, 1), names) if m & bit])
            for m in _MASKS}


_ENTRY_PROJECTION = _projections(("dip", "sip", "dport", "sport"))
_FLOW_PROJECTION = _projections(("dst_ip", "src_ip", "dst_port", "src_port"))


@dataclass(frozen=True)
class LabeledFlow:
    flow: FlowRecord
    class_label: str
    taxonomy: str = ""
    heuristic: int = 0
    distance: float = 0.0
    nb_detectors: int = 0
    mawilab_label: str = CLASS_NORMAL


@dataclass
class LabelStats:
    rows: int = 0
    class_counts: Counter = field(default_factory=Counter)
    taxonomy_counts: Counter = field(default_factory=Counter)
    l_histogram: Counter = field(default_factory=Counter)   # winner L; 0 = no match

    def add(self, labeled: LabeledFlow, winner_l: int):
        self.rows += 1
        self.class_counts[labeled.class_label] += 1
        if winner_l:
            self.taxonomy_counts[labeled.taxonomy] += 1
        self.l_histogram[winner_l] += 1


class MatchIndex:
    def __init__(self):
        # one table per mask, in precedence order
        self.maps: dict[int, dict[tuple, IdsLogEntry]] = {m: {} for m in _MASKS}
        self.size = 0

    def __len__(self):
        return self.size


def build_index(entries) -> MatchIndex:
    """Place each entry in the map of its non-null subset; when two entries
    claim the same subset and values, the greater by the total order keeps
    the slot (the loser could never win a match anyway)."""
    index = MatchIndex()
    for entry in entries:
        _, mask = specificity(entry)
        slot = index.maps[mask]
        vals = _ENTRY_PROJECTION[mask](entry)
        current = slot.get(vals)
        if current is None or precedence_key(entry) > precedence_key(current):
            slot[vals] = entry
        index.size += 1
    return index


def match_flow(index: MatchIndex, key: FlowKey):
    """Winning IdsLogEntry for this flow's four-tuple, or None.  Only the
    four attributes take part; key.proto is ignored.  The tables are
    probed in precedence order and each holds only the best entry per
    key, so the first hit wins."""
    for mask, table in index.maps.items():
        if table:
            entry = table.get(_FLOW_PROJECTION[mask](key))
            if entry is not None:
                return entry
    return None


def assign_class(winner) -> str:
    if winner is None:
        return CLASS_NORMAL
    l_value, _ = specificity(winner)
    return CLASS_UNSURE if l_value == 1 else CLASS_ANOMALY


def _label_with_l(flow: FlowRecord, index: MatchIndex) -> tuple[LabeledFlow, int]:
    winner = match_flow(index, flow.key)
    if winner is None:
        return LabeledFlow(flow=flow, class_label=CLASS_NORMAL), 0
    labeled = LabeledFlow(
        flow=flow,
        class_label=assign_class(winner),
        taxonomy=winner.taxonomy,
        heuristic=winner.heuristic,
        distance=winner.distance,
        nb_detectors=winner.nb_detectors,
        mawilab_label=winner.mawilab_label,
    )
    return labeled, specificity(winner)[0]


def label_one(flow: FlowRecord, index: MatchIndex) -> LabeledFlow:
    return _label_with_l(flow, index)[0]


def label_flows(flows, index: MatchIndex, stats: LabelStats | None = None):
    """label_one over the stream, one flow pulled per labeled flow yielded,
    in input order; counts each result into `stats` when given."""
    for flow in flows:
        labeled, winner_l = _label_with_l(flow, index)
        if stats is not None:
            stats.add(labeled, winner_l)
        yield labeled
