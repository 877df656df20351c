"""Golden output manifest: the SHA-256 of every file a fixed list of CLI
runs writes, so any change to an output byte fails tier-1.

The inputs are the `smoke` inputs of bench/workloads.py (seed 1), built
from a seed and byte-identical for a given (workload, seed, scale), plus
the committed non-canonical flow CSVs under tests/data/ (quoted and
multi-line cells, leading spaces, `+80`, times in seconds, CRLF, lone CR
and blank lines).  A change that alters an output on purpose rewrites the
manifest:

    PYTHONPATH=src python tests/test_golden.py --update

and says in CHANGES.md which files changed and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
MANIFEST = Path(__file__).resolve().parent / "golden_manifest.json"
sys.path.insert(0, str(ROOT / "bench"))

import workloads   # noqa: E402  (bench/ is not a package)
from flowlabel.cli import main   # noqa: E402

SEED = 1

NONCANONICAL_LOG = (
    "sip,sport,dip,dport,taxonomy,heuristic,distance,nbDetectors,label\n"
    "10.0.0.1,,10.0.0.2,80,sYNscan,20,0.5,3,anomalous\n"
    "null,443,,,ntscACK,1,2.25,1,suspicious\n"
    "10.0.0.5,,,,dos,2,7.5,2,anomalous\n"
    ",,10.0.0.8,,alphflHTTP,51,1.0,4,notice\n"
)

# (run name, argv); {in} is the input directory, {out} the run's own
# output directory, which holds what the run writes and nothing else
RUNS = (
    ("extract-short", ["extract", "-i", "{short}/in/trace.pcap.gz", "-o", "{out}",
                       "--stats", "{out}/stats.jsonl"]),
    ("extract-short-per-packet", ["extract", "-i", "{short}/in/trace.pcap.gz",
                                  "-o", "{out}/flows.csv", "--mode", "per-packet"]),
    ("extract-long-sec", ["extract", "-i", "{long}/in/trace.pcap", "-o", "{out}/flows.csv",
                          "--sec", "--stats", "{out}/stats.jsonl.gz"]),
    ("extract-long-active", ["extract", "-i", "{long}/in/trace.pcap",
                             "-o", "{out}/flows.csv.gz", "--idle-timeout", "0",
                             "--active-timeout", "3"]),
    ("pipeline-short-n5", ["pipeline", "-i", "{short}/in/trace.pcap.gz",
                           "-c", "{short}/in/log.csv", "-o", "{out}", "-n", "5",
                           "--stats", "{out}/stats.jsonl"]),
    ("pipeline-long-n1-unsure-sec", ["pipeline", "-i", "{long}/in/trace.pcap",
                                     "-c", "{long}/in/small_log.csv", "-o", "{out}/out.csv",
                                     "-n", "1", "--drop-unsure", "--sec"]),
    ("pipeline-short-gz-notice", ["pipeline", "-i", "{short}/in/trace.pcap.gz",
                                  "-c", "{short}/in/log.csv", "-o", "{out}/out.csv.gz",
                                  "--accept-notice", "--stats", "{out}/stats.jsonl"]),
    ("label-relabel", ["label", "-i", "{relabel}/in/flows.csv.gz",
                       "-c", "{relabel}/in/big_log.csv", "-o", "{out}/out.csv",
                       "--stats", "{out}/stats.jsonl"]),
    ("label-relabel-sec-gz", ["label", "-i", "{relabel}/in/flows.csv.gz",
                              "-c", "{relabel}/in/big_log.csv", "-o", "{out}/out.csv.gz",
                              "--sec", "--drop-unsure"]),
    ("split-relabel", ["split", "-i", "{golden}/label-relabel/out.csv", "-o", "{out}",
                       "-n", "0.5"]),
    ("split-relabel-gz", ["split", "-i", "{golden}/label-relabel-sec-gz/out.csv.gz",
                          "-o", "{out}", "-n", "7"]),
    ("label-noncanonical", ["label", "-i", "{data}/noncanonical_flows.csv", "-c", "{log}",
                            "-o", "{out}/out.csv", "--stats", "{out}/stats.jsonl"]),
    ("label-noncanonical-sec", ["label", "-i", "{data}/noncanonical_flows.csv", "-c", "{log}",
                                "-o", "{out}/out.csv.gz", "--sec", "--accept-notice",
                                "--drop-unsure"]),
    ("split-noncanonical", ["split", "-i", "{data}/noncanonical_labeled.csv", "-o", "{out}",
                            "-n", "1"]),
    ("split-noncanonical-labeled", ["split", "-i", "{golden}/label-noncanonical/out.csv",
                                    "-o", "{out}", "-n", "2"]),
    ("split-noncanonical-sec", ["split", "-i", "{golden}/label-noncanonical-sec/out.csv.gz",
                                "-o", "{out}", "-n", "0.5"]),
)


def digests(root: Path) -> dict:
    """Build the inputs under `root`, run every run of RUNS and return
    {run name: {file name: SHA-256}} of the files each run wrote."""
    places = {"data": DATA, "golden": root / "golden", "log": root / "noncanonical_log.csv"}
    for name in workloads.WORKLOADS:
        workloads.prepare(name, SEED, root / name, scale="smoke")
        places[name.split("-")[0]] = root / name
    places["log"].write_text(NONCANONICAL_LOG, encoding="utf-8")
    result = {}
    for run_name, argv in RUNS:
        out = places["golden"] / run_name
        out.mkdir(parents=True)
        code = main([arg.format(out=out, **places) for arg in argv] + ["--quiet"])
        assert code == 0, f"{run_name} exited {code}"
        result[run_name] = {
            str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}
    return result


def test_golden_outputs(tmp_path):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    actual = digests(tmp_path)
    changed = sorted(
        f"{run}/{name}" for run in expected.keys() | actual.keys()
        for name in expected.get(run, {}).keys() | actual.get(run, {}).keys()
        if expected.get(run, {}).get(name) != actual.get(run, {}).get(name))
    assert not changed, (
        f"{len(changed)} output files differ from tests/golden_manifest.json: "
        f"{changed[:20]}.  The inputs come from bench/workloads.py and Python's "
        f"`random`, so a change to either also changes the digests; if the "
        f"outputs changed on purpose, run `PYTHONPATH=src python "
        f"tests/test_golden.py --update` and say why in CHANGES.md")


if __name__ == "__main__":
    import tempfile
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    with tempfile.TemporaryDirectory() as tmp:
        manifest = digests(Path(tmp))
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, manifest.values()))} digests of {len(manifest)} runs "
          f"to {MANIFEST}")
