"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmarks/spread.py --rounds 10
    python3 benchmarks/spread.py --rounds 10 --compare .bench_build/treesample/spread-<stamp>.json

Each round runs every selected workload once, with the round's seed, so a slow
period of the host is spread across all workloads. For every workload and
end-to-end metric it prints the median, the quartiles and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json. With
--compare it also prints how far each median moved, in the metric's worse
direction, against an earlier summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from workloads import ROOT, WORK


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--compare", help="earlier summary JSON written by this script")
    args = parser.parse_args()

    chosen = args.workloads.split(",")
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in chosen}
    failures = []
    for r in range(args.rounds):
        seed = args.first_seed + r
        for w in chosen:
            cmd = [*spec["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if not result or not result["correct"]:
                failures.append((w, seed, proc.returncode, proc.stdout[-2000:] + proc.stderr[-2000:]))
                continue
            for name, metric in result["metrics"].items():
                values[w][name].append(metric["value"])
            print(f"round {r} {w} seed {seed}: {time.perf_counter() - start:.1f} s "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)

    earlier = json.loads(open(args.compare).read())["medians"] if args.compare else {}
    medians: dict[str, dict[str, float]] = {}
    for w in chosen:
        medians[w] = {}
        for metric in spec["end_to_end"]:
            series = values[w][metric["name"]]
            if len(series) < 2:
                continue
            q1, med, q3 = statistics.quantiles(series, n=4)
            medians[w][metric["name"]] = med
            spread = (q3 - q1) / med
            line = (f"{w:<16} {metric['name']:<17} median {med:<11.5g} q1 {q1:<11.5g} q3 {q3:<11.5g} "
                    f"spread {spread:.4f} bound {metric['bound']} "
                    f"{'ok' if spread < metric['bound'] / 3 else 'WIDE'}")
            before = earlier.get(w, {}).get(metric["name"])
            if before:
                sign = 1 if metric["better"] == "lower" else -1
                line += f"  worse-by {sign * (med - before) / before:+.4f}"
            print(line)
    for failure in failures:
        print("FAILED", *failure)
    out = WORK / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"values": values, "medians": medians}, indent=1) + "\n")
    print(f"summary in {out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
