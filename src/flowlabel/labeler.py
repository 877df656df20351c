"""Match flow records against IDS log entries and assign classes.

A flow matches an entry when every non-null attribute of the entry equals
the flow's corresponding attribute (protocol plays no part).  Among all
matching entries the winner is the maximum under (L, weight, earlier file
position).  Classes: no match = normal, winner with L=1 = unsure, winner
with L>1 = anomaly.

MatchIndex holds one hash map per non-empty subset of {dip, sip, dport,
sport} (tuple space search); an entry lives in the map of exactly its
non-null subset.  The maps are probed in precedence order, so a lookup
stops at the first hit.  It also keeps, per attribute, the set of values
the log uses: a flow whose value is not in that set cannot match any map
keyed on the attribute, so a lookup first takes the flow's presence
pattern (four set lookups) and probes only the non-empty maps whose
subset lies inside it.  Labeling is serial and streams: one flow in, one
labeled flow out.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import NamedTuple

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


def _projection(getter, fields):
    """Getter for the values of `fields` as a tuple (a 1-tuple for one)."""
    get = getter(*fields)
    if len(fields) == 1:
        return lambda obj: (get(obj),)
    return get


def _projections(getter, fields):
    return {m: _projection(getter, [f for bit, f in zip((8, 4, 2, 1), fields) if m & bit])
            for m in _MASKS}


_ENTRY_PROJECTION = _projections(attrgetter, ("dip", "sip", "dport", "sport"))
# FlowKey positions of dst_ip, src_ip, dst_port, src_port
_FLOW_PROJECTION = _projections(itemgetter, (1, 0, 3, 2))


class LabeledFlow(NamedTuple):
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
        # the dip, sip, dport and sport values the entries use
        self.values: tuple[set, set, set, set] = (set(), set(), set(), set())
        # per presence pattern: (flow projection, table) of each non-empty
        # table whose mask lies inside the pattern, in precedence order
        self.probes: tuple[tuple, ...] = ((),) * 16

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
        for used, value in zip(index.values, (entry.dip, entry.sip, entry.dport, entry.sport)):
            if value is not None:
                used.add(value)
    index.probes = tuple(
        tuple((_FLOW_PROJECTION[mask], table) for mask, table in index.maps.items()
              if table and mask & pattern == mask)
        for pattern in range(16))
    return index


def match_flow(index: MatchIndex, key: FlowKey):
    """Winning IdsLogEntry for this flow's four-tuple, or None.  Only the
    four attributes take part; key.proto is ignored.  The tables are
    probed in precedence order, skipping those keyed on a value the log
    never uses, and each holds only the best entry per key, so the first
    hit wins."""
    src, dst, sport, dport, _proto = key
    dips, sips, dports, sports = index.values
    pattern = ((8 if dst in dips else 0) | (4 if src in sips else 0)
               | (2 if dport in dports else 0) | (1 if sport in sports else 0))
    for project, table in index.probes[pattern]:
        entry = table.get(project(key))
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
        return LabeledFlow(flow, CLASS_NORMAL), 0
    l_value, _ = specificity(winner)
    # taxonomy, heuristic, distance, nb_detectors, mawilab_label
    return LabeledFlow(flow, CLASS_UNSURE if l_value == 1 else CLASS_ANOMALY,
                       *winner[4:9]), l_value


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
