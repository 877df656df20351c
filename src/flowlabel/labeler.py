"""Rank log entries and label flows; mawilab_log only parses the log.

A flow matches an entry when every non-null attribute of the entry equals
the flow's (protocol plays no part).  The winner among the matches is the
one with the most non-null attributes (L); among equal L, the one whose
attributes rank first under dip > sip > dport > sport; among equal
attributes, the earlier row.  Its L alone gives the class: no match =
normal, L=1 = unsure, L>1 = anomaly.

MatchIndex holds one hash map per non-empty subset of {dip, sip, dport,
sport} (tuple space search); an entry lives in the map of exactly its
non-null subset, so entries sharing a slot differ in rank only by row
order and the earlier row keeps it.  The maps are probed in precedence order, so a
lookup stops at the first hit.  The index also keeps the set of
addresses the log uses as sip or dip: a lookup first takes the flow's
address pattern (two set lookups) and probes only the non-empty maps
whose address attributes lie inside it.  Ports do not prune, as their
sets cost more memory than the probes they save; a map probed in vain
holds no entry for the flow's port or for its address in that role.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .mawilab_log import IdsLogEntry

if TYPE_CHECKING:   # annotations only: labeling never loads the aggregator
    from .flow_builder import FlowKey, FlowRecord

CLASS_NORMAL = "normal"
CLASS_ANOMALY = "anomaly"
CLASS_UNSURE = "unsure"


def attribute_count(entry: IdsLogEntry) -> int:
    """L for an entry: how many of its four-tuple attributes are non-null."""
    return 4 - entry[:4].count(None)


# Subset masks of {dip, sip, dport, sport}, bit 8 = dip down to bit 1 =
# sport, in precedence order: more attributes first, then the larger mask,
# which ranks dip > sip > dport > sport.  So the first table in this order
# that holds the flow's projection holds the winner.
_MASKS = tuple(sorted(range(1, 16), key=lambda m: (m.bit_count(), m), reverse=True))

# The probe key of each mask: IdsLogEntry and FlowKey both hold (sip,
# dip, sport, dport) at positions 0-3, so one getter projects an entry and
# a flow key alike, in dip, sip, dport, sport order; a one-attribute
# mask's key is the bare value.
_PROJECTION = {
    m: itemgetter(*[pos for bit, pos in zip((8, 4, 2, 1), (1, 0, 3, 2)) if m & bit])
    for m in _MASKS}

# The class of a winner with L attributes; L = 0 is no match.
_CLASS_OF_L = (CLASS_NORMAL, CLASS_UNSURE, CLASS_ANOMALY, CLASS_ANOMALY, CLASS_ANOMALY)


class LabeledFlow(NamedTuple):
    flow: FlowRecord
    class_label: str
    taxonomy: str = ""
    heuristic: int = 0
    distance: float = 0.0
    nb_detectors: int = 0
    mawilab_label: str = CLASS_NORMAL


class LabelStats:
    """Flows counted per winner (None = no match); the class, taxonomy and
    L counts are derived from those counts."""

    def __init__(self, winners: Counter | None = None):
        self.winners = Counter() if winners is None else winners

    # equal and printed by `winners`; unhashable, since `winners` changes
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.winners == other.winners
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(winners={self.winners!r})"

    @property
    def rows(self) -> int:
        return sum(self.winners.values())

    @property
    def l_histogram(self) -> Counter:   # winner L; 0 = no match
        counts = Counter()
        for winner, n in self.winners.items():
            counts[0 if winner is None else attribute_count(winner)] += n
        return counts

    @property
    def class_counts(self) -> Counter:
        counts = Counter()
        for l_value, n in self.l_histogram.items():
            counts[_CLASS_OF_L[l_value]] += n
        return counts

    @property
    def taxonomy_counts(self) -> Counter:
        counts = Counter()
        for winner, n in self.winners.items():
            if winner is not None:
                counts[winner.taxonomy] += n
        return counts


class MatchIndex:
    def __init__(self):
        # one table per mask, in precedence order, keyed by the mask's projection
        self.maps: dict[int, dict[object, IdsLogEntry]] = {m: {} for m in _MASKS}
        self.size = 0
        # entries that lost their slot to an earlier entry with equal values
        self.shadowed = 0
        # every address the entries use, as sip or dip
        self.addresses: set = set()
        # per address pattern (2 = dst in `addresses`, 1 = src):
        # (projection, table) of each non-empty table whose address
        # attributes lie inside the pattern, in precedence order
        self.probes: tuple[tuple, ...] = ((),) * 4

    def __len__(self):
        return self.size


def build_index(entries) -> MatchIndex:
    """Place each entry in the map of its non-null subset; when two entries
    claim the same subset and values, only row order ranks them, so the one
    earlier in the file keeps the slot (the other could never win a match)
    and the loser is counted in `shadowed`."""
    index = MatchIndex()
    maps = index.maps
    addresses = index.addresses
    size = shadowed = 0
    for entry in entries:
        sip, dip, sport, dport = entry[:4]
        mask = (2 if dport is not None else 0) | (1 if sport is not None else 0)
        if dip is not None:
            mask |= 8
            addresses.add(dip)
        if sip is not None:
            mask |= 4
            addresses.add(sip)
        slot = maps[mask]
        key = _PROJECTION[mask](entry)
        current = slot.setdefault(key, entry)
        if current is not entry:
            shadowed += 1
            if entry.file_order < current.file_order:
                slot[key] = entry
        size += 1
    index.size = size
    index.shadowed = shadowed
    # a mask's dip and sip bits (8, 4), shifted by 2, are its address pattern
    index.probes = tuple(
        tuple((_PROJECTION[mask], table) for mask, table in maps.items()
              if table and mask >> 2 & pattern == mask >> 2)
        for pattern in range(4))
    return index


def match_flow(index: MatchIndex, key: FlowKey):
    """Winning IdsLogEntry for this flow's four-tuple, or None.  Only the
    four attributes take part; key.proto is ignored.  The tables are
    probed in precedence order, skipping those keyed on an address the log
    never uses, and each holds only the best entry per key, so the first
    hit wins."""
    src, dst, _sport, _dport, _proto = key
    addresses = index.addresses
    pattern = (2 if dst in addresses else 0) | (1 if src in addresses else 0)
    for project, table in index.probes[pattern]:
        entry = table.get(project(key))
        if entry is not None:
            return entry
    return None


def assign_class(winner) -> str:
    return _CLASS_OF_L[0 if winner is None else attribute_count(winner)]


def label_flows(flows, index: MatchIndex, stats: LabelStats | None = None):
    """Each flow labeled by its winner, one flow pulled per labeled flow
    yielded, in input order; counts each winner into `stats` when given.
    match_flow is looked up at each call, so it can be wrapped."""
    winners = Counter() if stats is None else stats.winners
    new = tuple.__new__
    for flow in flows:
        winner = match_flow(index, flow.key)
        winners[winner] += 1
        if winner is None:
            yield LabeledFlow(flow, CLASS_NORMAL)
        else:
            # the class, then taxonomy, heuristic, distance, nb_detectors
            # and mawilab_label
            yield new(LabeledFlow, (flow, assign_class(winner), *winner[4:9]))
