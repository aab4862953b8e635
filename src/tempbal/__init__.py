"""Spectral diagnostics and layer-wise learning-rate scheduling.

The pipeline: snapshot layer weights (weight_store), turn each layer, its
own matrix once flattened and oriented, into the eigenvalue spectrum of its
Gram matrix (esd), fit the heavy tail and
extract per-layer metrics (htsr), map metrics to per-layer learning rates
(scheduler), and drive everything end to end with a small deterministic
training loop (train_engine). rmt_lab validates the tail-exponent
machinery on synthetic spectra.
"""

from .errors import ConfigError, DataError, NumericalError, TempbalError
from .esd import ESD, compute_esd
from .htsr import (
    LambdaMinPolicy,
    LayerMetrics,
    analyze_snapshot,
    hill_alpha,
    layer_metrics,
    select_k,
)
from .rmt_lab import PLSpectrumSpec, spike_experiment, synth_pl_matrix, verify_s_alpha
from .scheduler import (
    ScheduleConfig,
    ScheduleDecision,
    assign_lars,
    assign_rates,
    cal_rate,
    schedule_epoch,
)
from .train_engine import (
    CsvDataSpec,
    GaussianMixtureSpec,
    ModelSpec,
    OptimState,
    TrainTelemetry,
    make_dataset,
    run_training,
    sgd_step,
    snr_grad_term,
)
from .weight_store import (
    LayerTensor,
    WeightSnapshot,
    load_snapshot,
    read_snapshot,
    save_snapshot,
    write_snapshot,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CsvDataSpec",
    "DataError",
    "ESD",
    "GaussianMixtureSpec",
    "LambdaMinPolicy",
    "LayerMetrics",
    "LayerTensor",
    "ModelSpec",
    "NumericalError",
    "OptimState",
    "PLSpectrumSpec",
    "ScheduleConfig",
    "ScheduleDecision",
    "TempbalError",
    "TrainTelemetry",
    "WeightSnapshot",
    "analyze_snapshot",
    "assign_lars",
    "assign_rates",
    "cal_rate",
    "compute_esd",
    "hill_alpha",
    "layer_metrics",
    "load_snapshot",
    "make_dataset",
    "read_snapshot",
    "run_training",
    "save_snapshot",
    "schedule_epoch",
    "select_k",
    "sgd_step",
    "snr_grad_term",
    "spike_experiment",
    "synth_pl_matrix",
    "verify_s_alpha",
    "write_snapshot",
]
