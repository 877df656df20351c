"""Benchmark of the flowlabel CLI on seeded synthetic inputs.

    python3 bench/run.py --workload short-flows --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from anywhere inside a checkout; the package is imported from `src/`.
A run generates the workload's inputs from the seed, runs the command once
untimed (warm-up, and the output every later run is compared with), then
for `--seconds` alternates, round by round, which of its two steps goes
first:

  --trace 0   the CLI command in a child process, and a fresh process
              that imports flowlabel and builds the index from the
              workload's log (setup_s).  Prints the end-to-end metrics.
  --trace 1   the CLI command, and the same command run in-process by
              traced_cli.py with timers around each module.  Prints the
              per-layer metrics.

Every child's wall time, CPU time and peak RSS come from its own
os.wait4 rusage, taken by a small timer process (see run_child).
An operation fails when it exits non-zero or its output differs from the
warm-up output, which itself must pass gate.verify.  The last stdout line
is one JSON object: correct, attempted, failed, metrics.  The line before
it records the workload's properties and the machine.

--smoke runs every workload at a tiny size through both modes, then checks
that the gate rejects deliberately corrupted copies of each output: a
changed class, taxonomy or packet count in one row mid-file.
"""

from __future__ import annotations

import argparse
import dataclasses
import gzip
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import gate
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150
# Layer self times (thread CPU) may exceed the traced wall time by this
# share when zlib, which releases the interpreter lock, overlaps a thread.
PARTITION_SLACK = 0.03

SETUP_CODE = ("import sys\n"
              "from flowlabel import build_index, parse_log\n"
              "build_index(parse_log(sys.argv[1]))\n")

LAYER_SECONDS = (
    "pcap_reader.decode_s", "flow_builder.aggregate_s", "flow_io.traffic_write_s",
    "flow_io.traffic_read_s", "flow_io.label_write_s", "flow_io.split_s",
    "mawilab_log.parse_s", "labeler.index_build_s", "labeler.match_s",
)
LAYER_COUNTS = (
    "pcap_reader.packets", "pcap_reader.skipped", "flow_builder.flows",
    "flow_io.split_files", "mawilab_log.entries", "labeler.match_calls",
    "labeler.masks_nonempty",
)


# Starts argv, kills it after a time limit, and writes its exit code, wall
# seconds, CPU seconds and ru_maxrss (KiB).  A child's ru_maxrss starts at
# the peak RSS of the process that spawned it (exec records the replaced
# address space's high-water mark), so children are spawned from this
# interpreter started with -I -S, which is smaller than any flowlabel run,
# rather than from the benchmark process.
TIMER = r"""
import os, signal, sys, time
out, limit, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
t0 = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ)
signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
signal.alarm(limit)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
with open(out, "w") as fh:
    fh.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} "
             f"{usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss}")
"""


def run_child(argv, env, log_path: Path):
    """Run argv to completion through the timer process, with stdout and
    stderr going to log_path.  Returns (exit code, wall s, CPU s, peak RSS MB)."""
    result = log_path.with_suffix(".timer")
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(log_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    timer = [sys.executable, "-I", "-S", "-c", TIMER, str(result), str(CHILD_TIMEOUT_S), *argv]
    pid = os.posix_spawn(timer[0], timer, env, file_actions=actions, setpgroup=0)
    try:
        _, status = os.waitpid(pid, 0)
    except BaseException:
        os.killpg(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"timer process failed on {argv}")
    code, wall, cpu, rss_kib = result.read_text().split()
    return int(code), float(wall), float(cpu), int(rss_kib) / 1024


class Session:
    """One workload and seed: its inputs, the reference output digest, and
    the operations attempted so far."""

    def __init__(self, name: str, seed: int, work: Path, scale: str = "full"):
        self.work = work
        self.log = work / "child.log"
        tmp = work / "tmp"
        tmp.mkdir(parents=True)
        self.env = {**os.environ, "PYTHONPATH": str(SRC), "FLOWLABEL_TMPDIR": str(tmp)}
        self.prep = workloads.prepare(name, seed, work, scale)
        self.cli_argv = [sys.executable, "-m", "flowlabel", *self.prep.argv]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None
        self.class_shares = {}

    def _log_tail(self) -> str:
        return self.log.read_text(errors="replace")[-600:] if self.log.exists() else ""

    def _fail(self, what: str):
        self.failed += 1
        self.problems.append(what)
        print(f"bench: {self.prep.name}: {what}\n{self._log_tail()}", file=sys.stderr)

    def _finish(self, code: int, what: str) -> bool:
        """Count one operation whose outputs sit in out_dir; clear them."""
        self.attempted += 1
        try:
            if code != 0:
                self._fail(f"{what} exited {code}")
                return False
            if self.reference is None:
                self._fail(f"{what}: no verified reference output")
                return False
            if gate.digest(self.prep.out_dir) != self.reference:
                self._fail(f"{what}: output differs from the verified reference")
                return False
            return True
        finally:
            gate.clear(self.prep.out_dir)

    def warm_up(self):
        code = run_child(self.cli_argv, self.env, self.log)[0]
        if code == 0:
            problems, self.class_shares = gate.verify(self.prep)
            if problems:
                self.problems += problems
                print("bench: gate:\n  " + "\n  ".join(problems), file=sys.stderr)
            else:
                self.reference = gate.digest(self.prep.out_dir)
        self._finish(code, "warm-up")

    def cli(self):
        code, wall, cpu, rss_mb = run_child(self.cli_argv, self.env, self.log)
        if self._finish(code, "cli"):
            return {"wall": wall, "cpu": cpu, "rss_mb": rss_mb}
        return None

    def setup(self):
        argv = [sys.executable, "-c", SETUP_CODE, str(self.prep.log_path)]
        code, wall, _cpu, _rss = run_child(argv, self.env, self.log)
        self.attempted += 1
        if code != 0:
            self._fail(f"setup probe exited {code}")
            return None
        return wall

    def traced(self):
        report_path = self.work / "trace.json"
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(report_path), *self.prep.argv]
        code, wall, _cpu, _rss = run_child(argv, self.env, self.log)
        if not self._finish(code, "traced run"):
            return None
        report = json.loads(report_path.read_text())
        layers = {name: report["seconds"].get(name, 0.0) for name in LAYER_SECONDS}
        spent = sum(layers.values())
        if min(layers.values()) < 0 or spent > wall * (1 + PARTITION_SLACK):
            self._fail(f"traced run: layer self times {layers} do not fit in {wall:.3f} s")
            return None
        return {"wall": wall, "layers": layers, "other": wall - spent, "counts": report["counts"]}

    def gunzip(self) -> float:
        """Seconds to decompress the gzipped inputs alone."""
        t0 = time.perf_counter()
        for path in self.prep.gz_inputs:
            with gzip.open(path, "rb") as fh:
                while fh.read(1 << 20):
                    pass
        return time.perf_counter() - t0


def measure(s: Session, seconds: float, trace: bool, min_rounds: int = MIN_ROUNDS):
    """Warm up, then alternate the CLI with the setup probe (trace off) or
    the traced run (trace on) for `seconds`.  Returns (metrics, samples)."""
    s.warm_up()
    cli_runs, others = [], []
    other = s.traced if trace else s.setup
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        for step in ((s.cli, other) if rounds % 2 == 0 else (other, s.cli)):
            result = step()
            if result is not None:
                (cli_runs if step == s.cli else others).append(result)
        rounds += 1
    if not cli_runs or not others:
        raise SystemExit(f"bench: {s.prep.name}: no successful runs: {s.problems[:3]}")

    med = statistics.median
    if not trace:
        records, rows = s.prep.truth["records_in"], s.prep.truth["flows"]
        metrics = {
            "wall_s": (med(r["wall"] for r in cli_runs), "s"),
            "cpu_s": (med(r["cpu"] for r in cli_runs), "s"),
            "records_in_per_s": (med(records / r["wall"] for r in cli_runs), "1/s"),
            "rows_out_per_s": (med(rows / r["wall"] for r in cli_runs), "1/s"),
            "peak_rss_mb": (med(r["rss_mb"] for r in cli_runs), "MB"),
            "setup_s": (med(others), "s"),
            "success_rate": ((s.attempted - s.failed) / s.attempted, "ratio"),
        }
    else:
        counts = others[-1]["counts"]
        calls = counts.get("labeler.match_calls", 0)
        flows = counts.get("flow_builder.flows", 0)
        gunzip = med(s.gunzip() for _ in range(3))
        metrics = {name: (med(r["layers"][name] for r in others), "s") for name in LAYER_SECONDS}
        metrics.update({name: (counts.get(name, 0), "count") for name in LAYER_COUNTS})
        metrics.update({
            "flow_builder.pkts_per_flow": (counts.get("pcap_reader.packets", 0) / flows if flows else 0.0, "pkt/flow"),
            "labeler.hit_ratio": (counts.get("labeler.match_hits", 0) / calls if calls else 0.0, "ratio"),
            "fileio.gunzip_s": (gunzip, "s"),
            "cli.other_s": (med(r["other"] for r in others), "s"),
            "trace.overhead_s": (med(r["wall"] for r in others) - med(r["wall"] for r in cli_runs), "s"),
        })
    samples = {"rounds": rounds, "cli_wall_s": [round(r["wall"], 4) for r in cli_runs],
               "traced_wall_s" if trace else "setup_s":
                   [round(r["wall"] if trace else r, 4) for r in others]}
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, samples


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def _work_dir(tag: str) -> Path:
    work = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def _remove_work(work: Path):
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass   # another run's work directory is still there


def bench(args) -> int:
    work = _work_dir(f"{args.workload}-{args.seed}")
    try:
        s = Session(args.workload, args.seed, work)
        metrics, samples = measure(s, args.seconds, bool(args.trace))
        print(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "samples": samples,
            "properties": s.prep.properties, "class_shares": s.class_shares,
            "output_sha256": s.reference, "problems": s.problems[:10],
            "environment": environment(),
        }, sort_keys=True))
        print(json.dumps({"correct": s.failed == 0, "attempted": s.attempted,
                          "failed": s.failed, "metrics": metrics}))
    finally:
        _remove_work(work)
    return 0


def _corrupt(src: Path, dst: Path, how: str) -> Path:
    """Copy output directory src to dst, changing one column of one data
    row of the labeled file: the middle row the program classed anomaly
    or unsure (the middle row if there is none), so the change sits away
    from the start of the file where precedence decides the label."""
    shutil.copytree(src, dst)
    labeled = next(p for p in sorted(dst.iterdir()) if not gate.is_window(p))
    raw = labeled.read_bytes()
    zipped = raw[:2] == b"\x1f\x8b"
    lines = (gzip.decompress(raw) if zipped else raw).decode().split("\n")
    header = lines[0].split(",")
    data = [i for i in range(1, len(lines)) if lines[i]]
    matched = [i for i in data if lines[i].split(",")[header.index("class")] != "normal"]
    at = (matched or data)[len(matched or data) // 2]
    cells = lines[at].split(",")
    col = header.index(how)
    if how == "class":
        cells[col] = {"anomaly": "unsure", "unsure": "anomaly"}.get(cells[col], "anomaly")
    elif how == "taxonomy":
        cells[col] = "dos" if cells[col] != "dos" else "unknown"
    else:
        cells[col] = str(int(cells[col]) + 1)
    lines[at] = ",".join(cells)
    out = "\n".join(lines).encode()
    labeled.write_bytes(gzip.compress(out, mtime=0) if zipped else out)
    return dst


def smoke() -> int:
    """Tiny end-to-end check of every workload, both modes, and the gate."""
    ok = True
    work = _work_dir("smoke")
    try:
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                s = Session(name, 7, work / f"{name}-{int(trace)}", scale="smoke")
                metrics, _ = measure(s, 0, trace, min_rounds=1)
                print(f"smoke: {name} trace={int(trace)}: {s.attempted} operations, "
                      f"{s.failed} failed, {len(metrics)} metrics")
                ok &= s.failed == 0 and s.reference is not None
            # the gate must reject a corrupted copy of a verified output
            run_child(s.cli_argv, s.env, s.log)
            # scan_budget=0: the corrupted row must be caught without the
            # naive scan sample, by the checks that cover every row
            for how in ("class", "taxonomy", "packets"):
                bad = _corrupt(s.prep.out_dir, s.work / f"bad-{how}", how)
                problems, _ = gate.verify(dataclasses.replace(s.prep, out_dir=bad), scan_budget=0)
                caught = bool(problems) and gate.digest(bad) != s.reference
                print(f"smoke: {name}: corrupted {how} {'caught' if caught else 'NOT caught'}"
                      + (f": {problems[0]}" if problems else ""))
                ok &= caught
    finally:
        _remove_work(work)
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run of every workload plus a check that the gate catches corruption")
    args = parser.parse_args(argv)
    if not (SRC / "flowlabel" / "cli.py").is_file():
        print(f"bench: no flowlabel sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required (or use --smoke)")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
