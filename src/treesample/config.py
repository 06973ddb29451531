"""What a run is configured with: tie-break modes, sampler names and knobs and
study recipes, free of numpy so the CLI declares its flags without loading the
engine. `algorithms`, `samplers` and `evaluation` export them in `__all__`."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graphs import GraphSpec, Task
from .seeding import check_seed, positive_int, probability


class TiebreakMode(Enum):
    # one shuffle of V \ {0} per run, reused at every expansion
    PER_RUN_GLOBAL = "per-run-global"
    # fresh uniform choice among eligible children at every expansion
    PER_NODE = "per-node"


METHODS = ("argmax", "upwards", "alt-upwards", "beam", "greedy", "random")


@dataclass(frozen=True)
class SamplerConfig:
    """Tuning knobs for the beam and greedy samplers; each a positive int."""

    beam_width: int = 3
    beam_branch: int = 3
    greedy_parent_samples: int = 3
    greedy_max_resamples: int = 10

    def __post_init__(self) -> None:
        for name in ("beam_width", "beam_branch", "greedy_parent_samples", "greedy_max_resamples"):
            positive_int(getattr(self, name), f"{name} must be a positive int")


def check_distinct(name: str, values) -> None:
    if not values or len(set(values)) != len(values):
        raise ValueError(f"{name} must not repeat or be empty, got {list(values)}")


@dataclass(frozen=True)
class EvalConfig:
    """Shared recipe for the sampler evaluation studies.

    perturb_alpha 0 samples the empirical distribution; a value in (0, 1]
    mixes rows toward random simplex points before sampling. Each graph's
    seed is derived from seed. The config is checked when it is made: the
    counts must be positive ints, even where a study does not read them, the
    seed must pass the seed rule, and any other perturb_alpha (negative, above
    1, NaN, a bool or a non-number) is rejected.
    """

    graph_spec: GraphSpec
    sampler: SamplerConfig = SamplerConfig()
    graph_count: int = 50
    samples_per_graph: int = 5
    runs: int = 5
    dist_runs: int = 20
    perturb_alpha: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("graph_count", "samples_per_graph", "runs", "dist_runs"):
            positive_int(getattr(self, name), f"{name} must be a positive int")
        probability(self.perturb_alpha, "perturb_alpha")
        check_seed(self.seed)

    def distribution_label(self) -> str:
        return "empirical" if self.perturb_alpha == 0.0 else f"perturbed-{self.perturb_alpha:g}"


@dataclass(frozen=True)
class RerunStudyConfig:
    """How distribution stability is measured as the rerun budget grows.

    Checked when it is made, through each size's GraphSpec for the sizes,
    edge_probability and task.
    """

    sizes: tuple[int, ...] = tuple(range(5, 65))
    graphs_per_size: int = 100
    rerun_counts: tuple[int, ...] = (20, 50, 100)
    task: Task = Task.DFS
    edge_probability: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(self.sizes))
        object.__setattr__(self, "rerun_counts", tuple(self.rerun_counts))
        positive_int(self.graphs_per_size, "graphs_per_size must be a positive int")
        if len(self.rerun_counts) < 2:
            raise ValueError("need at least two rerun counts to compare")
        check_distinct("sizes", self.sizes)
        check_distinct("rerun_counts", self.rerun_counts)
        for i, count in enumerate(self.rerun_counts):
            positive_int(count, f"rerun_counts[{i}] must be a positive int")
        check_seed(self.seed)
        self.graph_specs()

    def graph_specs(self) -> list[GraphSpec]:
        """One GraphSpec per size, in the order of sizes."""
        return [GraphSpec(size, self.edge_probability, self.task) for size in self.sizes]
