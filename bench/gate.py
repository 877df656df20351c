"""Correctness gate for one workload's outputs.

`verify` checks a finished output directory against the generator's
ground truth: packet, byte and row totals, the class and label columns of
every row against a per-subset lookup matcher, and those of a
deterministic sample of rows against a naive scan over every rule, which
also checks the lookup matcher.  Both matchers are written here and share
no code with `flowlabel`.  `digest` fingerprints the directory so later
runs of the same seed are compared byte for byte.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import re
from collections import Counter
from pathlib import Path

# Naive scan cost budget: sampled rows times log rules.
SCAN_BUDGET = 3_000_000
ACCEPTED = ("anomalous", "suspicious")
SPORT_ONLY = (False, False, False, True)


def is_window(path: Path) -> bool:
    """True for the per-window files `split` writes (<stem>_wNNNN.csv)."""
    return re.search(r"_w\d{4,}\.csv$", path.name) is not None


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def clear(out_dir: Path):
    for path in out_dir.iterdir():
        path.unlink()


def _rows(path: Path):
    raw = path.read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    reader = csv.reader(io.StringIO(raw.decode("utf-8"), newline=""))
    header = next(reader)
    return header, [row for row in reader if row]


def _naive_rules(log_path: Path) -> list[tuple]:
    """(sip, sport, dip, dport, row) of every accepted log row, in file
    order; None marks an unspecified attribute."""
    with open(log_path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rules = []
        for row in reader:
            row = {k.strip().lower(): v.strip() for k, v in row.items()}
            if row["label"].lower() not in ACCEPTED:
                continue
            cell = [None if row[k] in ("", "null") else row[k]
                    for k in ("sip", "sport", "dip", "dport")]
            rules.append((cell[0], None if cell[1] is None else int(cell[1]),
                          cell[2], None if cell[3] is None else int(cell[3]), row))
    return rules


NORMAL = ("normal", "", "normal", 0, 0.0, 0)


def _expected(row: dict, n_attrs: int) -> tuple:
    return ("unsure" if n_attrs == 1 else "anomaly", row["taxonomy"], row["label"],
            int(row["heuristic"]), float(row["distance"]), int(row["nbdetectors"]))


def naive_label(rules, sip: str, dip: str, sport: int, dport: int):
    """Expected (class, taxonomy, label, heuristic, distance, nbDetectors)
    by scanning every rule: the most attributes win, then dip > sip >
    dport > sport, then the earlier row."""
    best = best_rank = None
    for order, (r_sip, r_sport, r_dip, r_dport, row) in enumerate(rules):
        if ((r_sip is not None and r_sip != sip) or (r_dip is not None and r_dip != dip)
                or (r_sport is not None and r_sport != sport)
                or (r_dport is not None and r_dport != dport)):
            continue
        present = (r_dip is not None, r_sip is not None, r_dport is not None,
                   r_sport is not None)
        rank = (sum(present), present, -order)
        if best is None or rank > best_rank:
            best, best_rank = row, rank
    return NORMAL if best is None else _expected(best, best_rank[0])


def lookup_table(rules) -> tuple[dict, list]:
    """The earliest rule per (attribute subset, values), and the subsets
    present in the log ordered by the same precedence as naive_label."""
    table = {}
    for r_sip, r_sport, r_dip, r_dport, row in rules:
        present = (r_dip is not None, r_sip is not None, r_dport is not None,
                   r_sport is not None)
        table.setdefault((present, r_dip, r_sip, r_dport, r_sport), row)
    subsets = sorted({key[0] for key in table}, key=lambda p: (sum(p), p), reverse=True)
    return table, subsets


def lookup_label(table, subsets, sip: str, dip: str, sport: int, dport: int):
    """naive_label by one dictionary probe per subset, cheap enough for
    every row.  Returns (expected tuple, winning subset or None)."""
    for present in subsets:
        row = table.get((present, dip if present[0] else None, sip if present[1] else None,
                         dport if present[2] else None, sport if present[3] else None))
        if row is not None:
            return _expected(row, sum(present)), present
    return NORMAL, None


def _spread(indices: list, k: int) -> list:
    """k indices evenly spaced over `indices` (all of them if k >= len)."""
    if k >= len(indices):
        return indices
    return [indices[i * len(indices) // k] for i in range(k)]


def verify(prepared, scan_budget: int = SCAN_BUDGET) -> tuple[list[str], dict]:
    """Check the outputs in prepared.out_dir.  Returns (problems, class
    shares, plus the share of rows whose winning rule is a lone source
    port 443); an empty problem list means the output is correct.
    `scan_budget` caps the naive scan sample at that many row-rule pairs."""
    problems = []
    sport443 = 0
    files = sorted(prepared.out_dir.iterdir())
    windows = [p for p in files if is_window(p)]
    labeled = [p for p in files if p not in windows]
    if len(labeled) != 1:
        return [f"expected one labeled file, found {[p.name for p in labeled]}"], {}
    header, rows = _rows(labeled[0])
    col = {name: i for i, name in enumerate(header)}
    truth = prepared.truth

    def totals(rows, where):
        got = (len(rows), sum(int(r[col["packets"]]) for r in rows),
               sum(int(r[col["bytes"]]) for r in rows))
        want = (truth["flows"], truth["packets"], truth["bytes"])
        if got != want:
            problems.append(f"{where}: (rows, packets, bytes) = {got}, generator says {want}")

    totals(rows, labeled[0].name)
    if windows:
        window_rows = []
        for path in windows:
            window_rows += _rows(path)[1]
        totals(window_rows, f"{len(windows)} window files")

    # Every row against the lookup matcher, then a sample against the naive
    # scan, half of it from rows the program classed anomaly or unsure
    # (where precedence decides) and half from normal rows.
    rules = _naive_rules(prepared.log_path)
    table, subsets = lookup_table(rules)
    flows = []
    for i, r in enumerate(rows):
        sip, dip, sport, dport = r[col["sIP"]], r[col["dIP"]], int(r[col["sPort"]]), int(r[col["dPort"]])
        got = (r[col["class"]], r[col["taxonomy"]], r[col["label"]],
               int(r[col["heuristic"]]), float(r[col["distance"]]),
               int(r[col["nbDetectors"]]))
        want, subset = lookup_label(table, subsets, sip, dip, sport, dport)
        flows.append((sip, dip, sport, dport, got))
        if subset == SPORT_ONLY and sport == 443:
            sport443 += 1
        if got != want and len(problems) < 6:
            problems.append(f"row {i + 2}: labeled {got}, lookup matcher gives {want}")
    n_sample = scan_budget // max(1, len(rules))
    matched = [i for i, f in enumerate(flows) if f[4][0] != "normal"]
    normal = [i for i, f in enumerate(flows) if f[4][0] == "normal"]
    picks = _spread(matched, max(n_sample // 2, n_sample - len(normal)))
    picks += _spread(normal, n_sample - len(picks))
    for i in sorted(picks):
        sip, dip, sport, dport, got = flows[i]
        want = naive_label(rules, sip, dip, sport, dport)
        if got != want and len(problems) < 12:
            problems.append(f"row {i + 2}: labeled {got}, naive scan gives {want}")
    classes = Counter(r[col["class"]] for r in rows)
    shares = {k: round(v / len(rows), 4) for k, v in sorted(classes.items())} if rows else {}
    if rows:
        shares["unsure_by_sport443_rule"] = round(sport443 / len(rows), 4)
    return problems, shares

