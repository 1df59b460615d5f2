"""Benchmark harnesses regenerating the paper's figures and ablations."""

from repro.bench.ablations import (
    ablation_batch_size,
    ablation_class_scheduler,
    ablation_graph_size,
    ablation_handoff_cost,
    ablation_keyed_conflicts,
)
from repro.bench.figures import (
    ALGORITHMS,
    WORKER_COUNTS,
    WRITE_PCTS,
    FigureData,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    quick_mode_default,
)
from repro.bench.artifact import (bench_environment, figure_payload,
                                  write_bench_json)
from repro.bench.harness import (StandaloneConfig, StandaloneResult,
                                 run_standalone)
from repro.bench.plot import plot_figure, plot_panel
from repro.bench.report import format_figure, print_figure

__all__ = [
    "bench_environment",
    "figure_payload",
    "write_bench_json",
    "StandaloneConfig",
    "StandaloneResult",
    "run_standalone",
    "FigureData",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "quick_mode_default",
    "ALGORITHMS",
    "WORKER_COUNTS",
    "WRITE_PCTS",
    "format_figure",
    "plot_figure",
    "plot_panel",
    "print_figure",
    "ablation_graph_size",
    "ablation_batch_size",
    "ablation_keyed_conflicts",
    "ablation_handoff_cost",
    "ablation_class_scheduler",
]
