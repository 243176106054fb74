"""Effective-rank dynamics of hidden-state matrices and advantage shaping."""

from .dynamics import (
    DEFAULT_STRIDE,
    Engine,
    MetricSeries,
    differences,
    prefix_metric_series,
    trajectory_metrics,
)
from .gram_stream import erank_from_gram
from .shaping import (
    EmaState,
    ShapingConfig,
    ShapingOutcome,
    auxiliary_advantage,
    dynamic_weights,
    ema_update,
    grpo_group_advantage,
    relative_deviation,
    rule_reward,
    shape_advantage,
    shape_from_metrics,
)
from .spectral import Centering, SpectralSummary, effective_rank, spectral_summary
from .tensor_io import HiddenStateMatrix, read_matrix, write_matrix

__version__ = "0.1.0"
