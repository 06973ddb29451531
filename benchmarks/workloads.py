"""Workloads, the fresh-process CLI runner, and output checks.

Every workload is a list of `python -m treesample.cli` command lines built
from the workload seed. The package is not installed: each child process gets
the checkout's `src` on PYTHONPATH, and every output path is absolute, so
`$TREESAMPLE_OUT` cannot redirect anything.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Everything the benchmark writes lives under the checkout's build directory.
WORK = ROOT / ".bench_build" / "treesample"
COMMAND_TIMEOUT_S = 150

# Methods that only ever pick shortest-path-DAG parents on a BF task, so every
# draw they make is a shortest-path tree.
BF_EXACT_METHODS = ("argmax", "beam", "greedy", "alt-upwards")


@dataclass
class Tally:
    """Attempted and failed operations, with the first few failures spelled out."""

    attempted: int = 0
    failed: int = 0
    findings: list[str] = field(default_factory=list)

    def record(self, ok: bool, finding: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.findings) < 25:
                self.findings.append(finding)


@dataclass(frozen=True)
class Outcome:
    """One CLI command run in a fresh process."""

    label: str
    wall_s: float
    cpu_s: float
    max_rss_kb: int
    exit_code: int
    stderr: str


def child_env(scratch: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "TREESAMPLE_OUT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(scratch)
    return env


def run_cli(label: str, argv: list[str], scratch: Path) -> Outcome:
    """Run one command; wall time, CPU and max RSS include reaped pool workers."""
    err_path = scratch / f"{label}.stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "treesample.cli", *argv],
            cwd=ROOT,
            env=child_env(scratch),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace").strip()
    err_path.unlink()
    return Outcome(
        label,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
        proc.returncode,
        stderr.splitlines()[-1] if stderr else "",
    )


def record_exit(tally: Tally, outcome: Outcome) -> None:
    tally.record(
        outcome.exit_code == 0,
        f"`{outcome.label}` exited {outcome.exit_code}: {outcome.stderr}",
    )


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


@dataclass(frozen=True)
class Study:
    """One `study table1|table2` command at --jobs 1."""

    name: str
    why: str
    table: str
    task: str
    n: int
    graphs: int
    runs: int
    samples: int
    methods: tuple[str, ...]
    jobs: int = 1
    data_files: tuple[str, ...] = ("table.csv",)

    @property
    def instances(self) -> int:
        return self.graphs * self.runs

    def commands(self, seed: int, out: Path, jobs: int) -> list[tuple[str, list[str]]]:
        argv = [
            "study", self.table, "--task", self.task, "-n", str(self.n),
            "--graphs", str(self.graphs), "--runs", str(self.runs),
            "--samples", str(self.samples), "--methods", ",".join(self.methods),
            "--jobs", str(jobs), "--seed", str(seed), "-o", str(out / "table.csv"),
        ]
        return [(f"study {self.table}", argv)]

    def check(self, out: Path, tally: Tally) -> None:
        """Table rows: one per method, with values inside their ranges."""
        try:
            with open(out / "table.csv", newline="") as fh:
                rows = {row["method"]: row for row in csv.DictReader(fh)}
        except (OSError, KeyError) as exc:
            tally.record(False, f"{self.name}: unreadable table: {exc}")
            return
        for method in self.methods:
            row = rows.get(method)
            if row is None:
                tally.record(False, f"{self.name}: no row for {method}")
            elif self.table == "table1":
                valids = float(row["valids_mean"])
                uniques = float(row["uniques_mean"])
                if self.task == "bf" and method in BF_EXACT_METHODS:
                    ok = valids == self.samples
                else:
                    ok = 0 <= valids <= self.samples
                ok = ok and 1 <= uniques <= self.samples
                tally.record(ok, f"{self.name}: {method} valids_mean={valids} uniques_mean={uniques}")
            else:
                acc = float(row["acc_mean"])
                tally.record(0.0 <= acc <= 1.0, f"{self.name}: {method} acc_mean={acc}")

    def deep_check(self, seed: int, out: Path, scratch: Path, tally: Tally) -> None:
        """Studies have no oracle cheaper than rerunning them."""


@dataclass(frozen=True)
class Chain:
    """gen -> dist -> sample -> check, each command in its own process."""

    name: str
    why: str
    n: int
    count: int
    runs: int
    k: int
    method: str
    jobs: int
    data_files: tuple[str, ...] = ("graphs.json", "dists.json", "solutions.json", "verdicts.csv")

    @property
    def instances(self) -> int:
        return self.count

    def commands(self, seed: int, out: Path, jobs: int) -> list[tuple[str, list[str]]]:
        graphs, dists = out / "graphs.json", out / "dists.json"
        solutions, verdicts = out / "solutions.json", out / "verdicts.csv"
        s = str(seed)
        return [
            ("gen", ["gen", "-n", str(self.n), "--count", str(self.count), "--task", "bf",
                     "--seed", s, "-o", str(graphs)]),
            ("dist", ["dist", "-i", str(graphs), "--task", "bf", "--runs", str(self.runs),
                      "--jobs", str(jobs), "--seed", s, "-o", str(dists)]),
            ("sample", ["sample", "-i", str(graphs), "-d", str(dists), "--task", "bf",
                        "--method", self.method, "-k", str(self.k), "--jobs", str(jobs),
                        "--seed", s, "-o", str(solutions)]),
            ("check", ["check", "-i", str(graphs), "-s", str(solutions), "-o", str(verdicts)]),
        ]

    def verdicts(self, out: Path) -> list[tuple[int, tuple[int, ...], bool, str]]:
        """(graph index, candidate, `valid` from sample, verdict from check)."""
        payload = json.loads((out / "solutions.json").read_text())
        lines = (out / "verdicts.csv").read_text().splitlines()
        flat = [
            (entry["graph_index"], tuple(sol), bool(valid))
            for entry in payload["entries"]
            for sol, valid in zip(entry["solutions"], entry["valid"], strict=True)
        ]
        if len(payload["entries"]) != self.count or len(flat) != len(lines):
            raise ValueError(
                f"{len(payload['entries'])} entries, {len(flat)} candidates, {len(lines)} verdicts"
            )
        return [(*item, line.split(",")[1]) for item, line in zip(flat, lines)]

    def check(self, out: Path, tally: Tally) -> None:
        """Each `check` verdict equals the `valid` field `sample` wrote."""
        try:
            rows = self.verdicts(out)
        except (OSError, KeyError, IndexError, ValueError) as exc:
            tally.record(False, f"{self.name}: unreadable outputs: {exc}")
            return
        for index, pi, valid, verdict in rows:
            tally.record(
                verdict == str(valid).lower(),
                f"{self.name}: graph {index} candidate {pi}: sample said {valid}, check said {verdict}",
            )

    def deep_check(self, seed: int, out: Path, scratch: Path, tally: Tally) -> None:
        """Untimed: verdicts against the exhaustive oracle, and --jobs 1 == --jobs 2."""
        from treesample import enumerate_shortest_path_trees, graphs_from_json

        try:
            graphs = graphs_from_json(out / "graphs.json")
            rows = self.verdicts(out)
        except (OSError, KeyError, IndexError, ValueError) as exc:
            tally.record(False, f"{self.name}: unreadable outputs: {exc}")
        else:
            trees: dict[int, set] = {}
            for index, pi, _, verdict in rows:
                if index not in trees:
                    trees[index] = enumerate_shortest_path_trees(graphs[index])
                exact = pi in trees[index]
                tally.record(
                    verdict == str(exact).lower(),
                    f"{self.name}: graph {index} candidate {pi}: check said {verdict}, "
                    f"enumeration says {exact}",
                )
        serial = scratch / "jobs1"
        serial.mkdir()
        (serial / "graphs.json").write_bytes((out / "graphs.json").read_bytes())
        for label, argv in self.commands(seed, serial, jobs=1)[1:3]:
            record_exit(tally, run_cli(f"{label} --jobs 1", argv, scratch))
        for name in ("dists.json", "solutions.json"):
            tally.record(
                digest(serial / name) == digest(out / name),
                f"{self.name}: {name} differs between --jobs 1 and --jobs {self.jobs}",
            )


WORKLOADS = {
    w.name: w
    for w in (
        Study(
            name="bf-n64-table1",
            why="tie-rich BF at n=64: beam, greedy, the BF runner and Fraction graph builds dominate",
            table="table1", task="bf", n=64, graphs=10, runs=2, samples=5,
            methods=("argmax", "beam", "greedy", "alt-upwards", "upwards", "random"),
        ),
        Study(
            name="dfs-n8-table2",
            why="DFS at n=8: check_dfs_valid and the upwards walks; bypasses every BF layer",
            table="table2", task="dfs", n=8, graphs=50, runs=3, samples=25,
            methods=("argmax", "upwards", "alt-upwards", "random"),
        ),
        Chain(
            name="bf-n8-cli-jobs2",
            why="four fresh processes at n=8 with --jobs 2: per-call, JSON and start-up overhead",
            n=8, count=500, runs=20, k=5, method="beam", jobs=2,
        ),
    )
}
