"""Benchmark suite and evaluation harness for dynamic multimodal
optimization: 24 problems built from eight multimodal landscape
families under eight environmental change modes, with a strict
fitness-evaluation budget protocol and peak-ratio scoring.
"""

from .config import BenchmarkSettings, ConfigError, OptimizerConfig, load_config
from .controller import (PopulationSnapshot, ProblemInstance, create_problem,
                         dump_environments_text, iterate_environments)
from .core import (DOMAIN_HIGH, DOMAIN_LOW, PROBLEM_INDICES, PROBLEM_TABLE,
                   PlacementError, ProblemSpec, RngStream, RunFrozenError,
                   problem_spec)
from .metrics import RunRecord, best_worst, count_npf, peak_ratio, score_run
from .optimizers import OPTIMIZERS, CrowdingDE, RandomSearch, make_optimizer
from .reporting import (BenchmarkReport, ResultsTable, execute_run,
                        export_landscape_grid, rescore_snapshots,
                        run_benchmark, write_artifact)

__version__ = "1.0.0"

__all__ = [
    "BenchmarkReport",
    "BenchmarkSettings",
    "ConfigError",
    "CrowdingDE",
    "DOMAIN_HIGH",
    "DOMAIN_LOW",
    "OPTIMIZERS",
    "OptimizerConfig",
    "PROBLEM_INDICES",
    "PROBLEM_TABLE",
    "PlacementError",
    "PopulationSnapshot",
    "ProblemInstance",
    "ProblemSpec",
    "RandomSearch",
    "ResultsTable",
    "RngStream",
    "RunFrozenError",
    "RunRecord",
    "best_worst",
    "count_npf",
    "create_problem",
    "dump_environments_text",
    "execute_run",
    "export_landscape_grid",
    "iterate_environments",
    "load_config",
    "make_optimizer",
    "peak_ratio",
    "problem_spec",
    "rescore_snapshots",
    "run_benchmark",
    "score_run",
    "write_artifact",
]
