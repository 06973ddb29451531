"""treesample benchmark: named workloads run through `python -m treesample.cli`.

Run from the repository root:

    python3 benchmarks/run.py --workload bf-n64-table1 --seed 1 --seconds 20 --trace 0

With `--trace 0` every command runs in a fresh process and the end-to-end
metrics are measured. With `--trace 1` the workload is replayed in-process at
--jobs 1 with spans around each module's public functions, and the per-layer
metrics are reported instead. Metric names and units come from BENCHMARK.json.
The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

from workloads import ROOT, SRC, WORK, WORKLOADS, Tally, digest, median, record_exit, run_cli

SETUP_RUNS = 5
MIN_REPS = 3


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unknown"


def provenance() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # Look for a repository in the checkout only, and read no git config.
            env=dict(
                os.environ,
                GIT_CEILING_DIRECTORIES=str(ROOT.parent),
                GIT_CONFIG_NOSYSTEM="1",
                GIT_CONFIG_GLOBAL=os.devnull,
            ),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "commit": commit or "unknown (not a git checkout)",
        "loadavg_before": loadavg(),
    }


def fast_quartile(times) -> float:
    """Lower quartile: host slowdowns only ever add time, and come in bursts."""
    return statistics.quantiles(times, n=4)[0]


def run_timed(workload, seed: int, seconds: int, scratch, tally: Tally) -> dict[str, float]:
    """Fresh-process repetitions of the workload until `seconds` are used."""
    setup = []

    def measure_setup() -> None:
        outcome = run_cli("--version", ["--version"], scratch)
        record_exit(tally, outcome)
        setup.append(outcome.wall_s)

    for _ in range(SETUP_RUNS):
        measure_setup()
    reps = []
    first = None
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start + median(r["span"] for r in reps) <= seconds:
        span_start = time.perf_counter()
        measure_setup()  # setup samples spread over the run, not only its start
        rep_start = time.perf_counter()
        out = scratch / f"rep{len(reps)}"
        out.mkdir()
        outcomes = [
            run_cli(label, argv, scratch)
            for label, argv in workload.commands(seed, out, workload.jobs)
        ]
        wall = time.perf_counter() - rep_start
        for outcome in outcomes:
            record_exit(tally, outcome)
        workload.check(out, tally)
        digests = {name: digest(out / name) for name in workload.data_files}
        if first is None:
            first = out, digests
        else:
            for name, value in digests.items():
                tally.record(
                    value == first[1][name],
                    f"{workload.name}: {name} differs between repetitions of seed {seed}",
                )
            shutil.rmtree(out)
        reps.append({
            "wall": wall,
            "cpu": sum(o.cpu_s for o in outcomes),
            "rss_kb": max(o.max_rss_kb for o in outcomes),
            "span": time.perf_counter() - span_start,
        })

    workload.deep_check(seed, first[0], scratch, tally)
    n = workload.instances
    print(f"{len(reps)} repetitions of {n} graph instances; rep walls "
          + " ".join(f"{r['wall']:.3f}" for r in reps) + " s")
    print("rep cpu " + " ".join(f"{r['cpu']:.3f}" for r in reps) + " s; setup walls "
          + " ".join(f"{w:.3f}" for w in setup) + " s")
    return {
        "setup_s": fast_quartile(setup),
        "graphs_per_s": n / fast_quartile(r["wall"] for r in reps),
        "cpu_ms_per_graph": 1000.0 * fast_quartile(r["cpu"] for r in reps) / n,
        "peak_rss_mb": median(r["rss_kb"] / 1024.0 for r in reps),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "treesample" / "cli.py").is_file():
        print(f"error: no treesample sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be non-negative and --seconds positive", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    units = declared_metrics(bool(args.trace))
    info = provenance()
    WORK.mkdir(parents=True, exist_ok=True)
    scratch = WORK / f"run-{os.getpid()}"
    scratch.mkdir()
    tally = Tally()
    sys.path.insert(0, str(SRC))
    try:
        if args.trace:
            from tracing import run_traced

            values = run_traced(workload, args.seed, args.seconds, scratch, tally, info)
        else:
            values = run_timed(workload, args.seed, args.seconds, scratch, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    info["loadavg_after"] = loadavg()

    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    print(f"workload {workload.name}  seed {args.seed}  ({workload.why})")
    print("provenance " + json.dumps(info, sort_keys=True))
    for finding in tally.findings:
        print(f"FINDING {finding}")
    width = max(map(len, units))
    for name, unit in units.items():
        print(f"  {name:<{width}}  {values[name]:.6g} {unit}")
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_frac':<{width}}  {frac:.6g} ratio ({tally.failed} failed of {tally.attempted} attempted)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
