"""Golden digests: canonical CLI runs must keep producing the same bytes.

Every command below runs in-process through `cli.main` at fixed seeds; the
SHA-256 of each data file it writes (manifests excluded, they carry
timestamps) is compared with `golden_digests.json`. A change that alters any
output byte fails here. If the change is deliberate, regenerate the digests
with `PYTHONPATH=src python tests/test_golden.py`, which names each file
whose digest changed, set DIGESTS_NUMPY to the numpy that made them, and say
why in the commit.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy

from treesample.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")
DIGESTS_NUMPY = "2.4.6"  # the numpy release whose Generator streams made DIGESTS

GRAPH_SETS = {
    # name: (task, gen flags)
    "bf8": ("bf", ["-n", "8", "--count", "4", "--seed", "11"]),
    "bf5raw": ("bf", ["-n", "5", "--count", "3", "--weights", "2,5,7", "--no-normalize",
                      "--seed", "12"]),
    "bf16": ("bf", ["-n", "16", "--count", "2", "--weights", "1,4,6", "--seed", "13"]),
    # Weights with a common factor: every graph's denominator (3) is below
    # the max weight (6), so generation must divide the factor out.
    "bf6even": ("bf", ["-n", "6", "--count", "3", "--weights", "2,4,6", "--seed", "14"]),
    "dfs5": ("dfs", ["-n", "5", "--count", "3", "--seed", "21"]),
    "dfs8": ("dfs", ["-n", "8", "--count", "3", "--seed", "22"]),
}
METHODS = {
    "bf": ("argmax", "upwards", "alt-upwards", "beam", "greedy", "random"),
    "dfs": ("argmax", "upwards", "alt-upwards", "random"),
}
STUDIES = {
    "reruns-dfs.csv": ["reruns", "--sizes", "4,6", "--graphs", "2", "--counts", "5,10"],
    "reruns-bf.csv": ["reruns", "--task", "bf", "--sizes", "5", "--graphs", "2",
                      "--counts", "5,10,20"],
    "coverage-bf.csv": ["coverage", "--task", "bf", "-n", "6", "--graphs", "3", "--samples", "4"],
    "coverage-dfs.csv": ["coverage", "--task", "dfs", "-n", "5", "--graphs", "3",
                         "--samples", "4"],
    "coverage-bf-default.csv": ["coverage", "--task", "bf", "-n", "5", "--graphs", "2"],
    "reuse-bf.csv": ["edge-reuse", "--task", "bf", "-n", "6", "--graphs", "3", "--samples", "4"],
    "reuse-dfs.csv": ["edge-reuse", "--task", "dfs", "-n", "5", "--graphs", "3", "--samples", "3",
                      "--denominator", "first"],
    "reuse-dfs-jobs2.csv": ["edge-reuse", "--task", "dfs", "-n", "5", "--graphs", "3",
                            "--samples", "4", "--jobs", "2"],
    "table1-bf.csv": ["table1", "--task", "bf", "-n", "6", "--graphs", "3", "--runs", "2",
                      "--samples", "3"],
    "table1-dfs.csv": ["table1", "--task", "dfs", "-n", "5", "--graphs", "3", "--runs", "2",
                       "--samples", "3", "--methods", "upwards,alt-upwards,random"],
    "table2-bf.csv": ["table2", "--task", "bf", "-n", "6", "--graphs", "3", "--runs", "2",
                      "--methods", "argmax,beam,greedy,upwards,alt-upwards,random"],
    "table2-bf-alpha.csv": ["table2", "--task", "bf", "-n", "6", "--graphs", "3", "--runs", "2",
                            "--alpha", "0.3", "--beam-width", "2", "--greedy-samples", "2"],
    "table2-dfs.csv": ["table2", "--task", "dfs", "-n", "5", "--graphs", "3", "--runs", "2"],
    # Minimal beam and greedy knobs under full perturbation reach all four
    # sampler fallbacks: lightest parent and self, in beam and in greedy.
    "table2-bf-fallbacks.csv": ["table2", "--task", "bf", "-n", "12", "--graphs", "4",
                                "--runs", "1", "--alpha", "1", "--beam-width", "1",
                                "--beam-branch", "1", "--greedy-samples", "1",
                                "--greedy-resamples", "1", "--methods", "beam,greedy"],
    "table1-bf64.csv": ["table1", "--task", "bf", "-n", "64", "--graphs", "2", "--jobs", "2"],
}


def run(*argv: str) -> None:
    code = main(list(argv))
    assert code == 0, f"`treesample {' '.join(argv)}` exited {code}"


def canonical_outputs(out: Path) -> dict[str, str]:
    """Run every canonical command into out; SHA-256 per data file name."""
    for name, (task, flags) in GRAPH_SETS.items():
        graphs = str(out / f"{name}.json")
        run("gen", "--task", task, *flags, "-o", graphs)
        for mode in ("per-run-global", "per-node"):
            run("dist", "-i", graphs, "--task", task, "--mode", mode, "--runs", "10",
                "--seed", "5", "-o", str(out / f"{name}-{mode}.dists.json"))
        for method in METHODS[task]:
            sols = str(out / f"{name}-{method}.sols.json")
            run("sample", "-i", graphs, "-d", str(out / f"{name}-per-run-global.dists.json"),
                "--task", task, "--method", method, "-k", "4", "--seed", "6", "-o", sols)
            run("check", "-i", graphs, "-s", sols, "-o", str(out / f"{name}-{method}.csv"))
    for name, argv in STUDIES.items():
        run("study", *argv, "--seed", "7", "-o", str(out / name))
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if not p.name.endswith(".manifest.json")
    }


def changed_names(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Data files whose digest differs, or that only one side has."""
    return sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))


def test_canonical_outputs_match_golden_digests(tmp_path, capsys):
    actual = canonical_outputs(tmp_path)
    capsys.readouterr()
    changed = changed_names(json.loads(DIGESTS.read_text()), actual)
    assert not changed, (
        f"output bytes changed for: {', '.join(changed)} (numpy {numpy.__version__} running,"
        f" digests made with numpy {DIGESTS_NUMPY})"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        digests = canonical_outputs(Path(scratch))
    for name in changed_names(json.loads(DIGESTS.read_text()), digests):
        print(f"changed: {name}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
    print(f"made with numpy {numpy.__version__}: set DIGESTS_NUMPY to match", file=sys.stderr)
