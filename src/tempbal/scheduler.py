"""Per-epoch layer-wise learning-rate assignment.

The global base rate follows cosine annealing,
eta_t = (eta0/2) * (1 + cos(t*pi/T)). On top of it, per-layer rates are
assigned from per-layer tail metrics by one of:

    tempbalance  linear map of the metric onto [s1*eta_t, s2*eta_t]:
                 f(i) = eta_t * [(a_i - a_min)/(a_max - a_min)*(s2-s1) + s1]
    sqrt         f(i) = eta_t * sqrt(a_i) / mean_j sqrt(a_j)
    log2         f(i) = eta_t * log(a_i) / mean_j log(a_j)  (base cancels)
    step         rank r among L layers gets eta_t*(s1 + (r-1)(s2-s1)/(L-1))
    lars         trust ratio eta_t * ||w_i|| / (||g_i|| + eps)
    global_only  every layer rides eta_t

The tempbalance map is scale-free: replacing every metric value a_i by
c*a_i (c > 0) leaves the assignment unchanged, so the absolute calibration
of the exponent estimate does not matter, only the layer ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigError, NumericalError
from .htsr import LambdaMinPolicy, LayerAnalysis, analyze_snapshot
from .weight_store import WeightSnapshot

ASSIGNMENTS = ("tempbalance", "sqrt", "log2", "step", "lars", "global_only")
METRICS = ("alpha_hill", "spectral_norm", "alpha_weighted")

LARS_EPS = 1e-9


class AssignmentError(NumericalError):
    """Metric values outside the domain of the assignment function."""


@dataclass(frozen=True)
class ScheduleConfig:
    """Static inputs of the schedule: base rate, horizon, scaling ratios, mode."""

    eta0: float
    total_epochs: int
    s1: float = 0.5
    s2: float = 1.5
    assignment: str = "tempbalance"
    metric: str = "alpha_hill"
    start_epoch: int = 0
    update_interval_iters: int = 390
    exclude_first_last: bool = True

    def __post_init__(self):
        if self.eta0 <= 0:
            raise ConfigError(f"eta0 must be positive, got {self.eta0}")
        if self.total_epochs <= 0:
            raise ConfigError(f"total_epochs must be positive, got {self.total_epochs}")
        if not 0 < self.s1 <= 1 <= self.s2:  # excluded and fallback layers ride eta_t, inside the range
            raise ConfigError(f"need 0 < s1 <= 1 <= s2, got ({self.s1}, {self.s2})")
        if self.assignment not in ASSIGNMENTS:
            raise ConfigError(f"unknown assignment {self.assignment!r}, expected one of {ASSIGNMENTS}")
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}, expected one of {METRICS}")
        if not 0 <= self.start_epoch < self.total_epochs:
            raise ConfigError(
                f"start_epoch must be in [0, total_epochs), got {self.start_epoch} of {self.total_epochs}"
            )
        if self.update_interval_iters <= 0:
            raise ConfigError(f"update_interval_iters must be positive, got {self.update_interval_iters}")


@dataclass(frozen=True)
class ScheduleDecision:
    """Learning rates for the next update window, with the per-layer fits they came from.

    per_layer gives every snapshot layer its rate. alphas_used holds the
    metric value of each layer the assignment ranked. analyses are the
    analyze_snapshot rows the decision read, in snapshot order; the tuple is
    empty when no spectrum was taken (before start_epoch, global_only, lars).
    """

    epoch: int
    eta_t: float
    per_layer: dict[str, float]
    alphas_used: dict[str, float]
    analyses: tuple[LayerAnalysis, ...] = ()

    @property
    def fallback_layers(self) -> tuple[str, ...]:
        """Layers whose spectrum was degenerate, in snapshot order; they ride eta_t."""
        return tuple(row.name for row in self.analyses if row.metrics is None)


def cal_rate(eta0: float, t: int, total_epochs: int) -> float:
    """Cosine-annealed global rate (eta0/2)*(1 + cos(t*pi/total_epochs))."""
    if total_epochs == 0:
        raise ConfigError("total_epochs must be nonzero")
    if not 0 <= t <= total_epochs:
        raise ValueError(f"t must be in [0, {total_epochs}], got {t}")
    return (eta0 / 2.0) * (1.0 + math.cos(t * math.pi / total_epochs))


def _substitute_sentinels(metrics: Mapping[str, float]) -> dict[str, float]:
    """Replace +inf sentinels with the largest finite value among the layers.

    A flat-tailed layer reports alpha = +inf; mapping that through the
    linear assignment would collapse every other layer onto s1. If no
    finite value exists at all, every layer is treated as equal.
    """
    for name, v in metrics.items():
        if math.isnan(v) or v == -math.inf:
            raise AssignmentError(f"metric value for {name!r} is {v}")
    finite = [v for v in metrics.values() if math.isfinite(v)]
    if len(finite) == len(metrics):
        return dict(metrics)
    stand_in = max(finite) if finite else 1.0
    return {name: (stand_in if math.isinf(v) else v) for name, v in metrics.items()}


def assign_tempbalance(
    eta_t: float, metrics: Mapping[str, float], s1: float, s2: float
) -> dict[str, float]:
    """Linear map of metric values onto [s1*eta_t, s2*eta_t].

    When all values coincide the map is 0/0; every layer then gets the
    midpoint eta_t*(s1+s2)/2 (equal to eta_t at the default ratios).
    """
    if not metrics:
        raise AssignmentError("metric map is empty")
    values = _substitute_sentinels(metrics)
    a_min = min(values.values())
    a_max = max(values.values())
    if a_max == a_min:
        mid = eta_t * (s1 + s2) / 2.0
        return {name: mid for name in values}
    span = a_max - a_min
    lo, hi = s1 * eta_t, s2 * eta_t
    out = {}
    for name, v in values.items():
        lr = eta_t * ((v - a_min) / span * (s2 - s1) + s1)
        out[name] = min(max(lr, lo), hi)
    return out


def assign_variant(
    eta_t: float,
    metrics: Mapping[str, float],
    variant: str,
    s1: float,
    s2: float,
) -> dict[str, float]:
    """Alternative assignment functions: sqrt, log2, or rank-based step."""
    if not metrics:
        raise AssignmentError("metric map is empty")
    values = _substitute_sentinels(metrics)
    if variant == "sqrt":
        if any(v <= 0 for v in values.values()):
            raise AssignmentError("sqrt assignment requires positive metric values")
        roots = {name: math.sqrt(v) for name, v in values.items()}
        mean = sum(roots.values()) / len(roots)
        return {name: eta_t * r / mean for name, r in roots.items()}
    if variant == "log2":
        if any(v <= 0 for v in values.values()):
            raise AssignmentError("log assignment requires positive metric values")
        logs = {name: math.log(v) for name, v in values.items()}
        mean = sum(logs.values()) / len(logs)
        if mean == 0.0:
            raise AssignmentError("log assignment denominator is zero (mean log metric is 0)")
        return {name: eta_t * lg / mean for name, lg in logs.items()}
    if variant == "step":
        names = list(values)
        if len(names) == 1:
            return {names[0]: eta_t * (s1 + s2) / 2.0}
        # stable sort on the metric itself, so a +inf sentinel ranks above the
        # finite value standing in for it; ties keep layer order
        ranked = sorted(names, key=lambda name: metrics[name])
        width = (s2 - s1) / (len(names) - 1)
        hi = s2 * eta_t  # rounding can carry the top rank an ulp past it
        return {name: min(eta_t * (s1 + rank * width), hi) for rank, name in enumerate(ranked)}
    raise ConfigError(f"unknown variant {variant!r}")


def assign_lars(
    eta_t: float,
    weight_norms: Mapping[str, float],
    grad_norms: Mapping[str, float],
) -> dict[str, float]:
    """Trust-ratio rates eta_t * ||w|| / (||g|| + LARS_EPS); zero-norm layers ride eta_t."""
    out = {}
    for name, w_norm in weight_norms.items():
        if w_norm == 0.0:
            out[name] = eta_t
        else:
            out[name] = eta_t * w_norm / (grad_norms.get(name, 0.0) + LARS_EPS)
    return out


def schedule_epoch(
    config: ScheduleConfig,
    t: int,
    snapshot: WeightSnapshot,
    policy: LambdaMinPolicy,
    grad_norms: Mapping[str, float] | None = None,
) -> ScheduleDecision:
    """Learning rates for epoch t from the current weight snapshot.

    Every layer starts at the global eta_t and keeps it before start_epoch
    and under global_only. lars rescales each layer by its trust ratio once
    grad_norms, the previous step's gradient norms, are given. Otherwise the
    snapshot is analyzed and its metric values drive the configured
    assignment; with exclude_first_last the first and last snapshot layers
    skip the metric map and ride eta_t. A layer whose spectrum is degenerate
    also rides eta_t and shows in the decision's fallback_layers.
    """
    if t >= config.total_epochs:
        raise ValueError(f"t must be below total_epochs={config.total_epochs}, got {t}")
    eta_t = cal_rate(config.eta0, t, config.total_epochs)
    names = snapshot.layer_names()
    per_layer = dict.fromkeys(names, eta_t)
    analyses = ()
    metric_map = {}
    scheduled = t >= config.start_epoch and config.assignment != "global_only"

    if scheduled and config.assignment == "lars":
        if grad_norms is not None:  # none observed yet in the first window
            weight_norms = {layer.name: float(np.linalg.norm(layer.values)) for layer in snapshot.layers}
            per_layer.update(assign_lars(eta_t, weight_norms, grad_norms))
    elif scheduled:
        excluded = {names[0], names[-1]} if config.exclude_first_last else set()
        analyses = tuple(analyze_snapshot(snapshot, policy))
        metric_map = {
            row.name: getattr(row.metrics, config.metric)
            for row in analyses
            if row.metrics is not None and row.name not in excluded
        }
        if metric_map and config.assignment == "tempbalance":
            per_layer.update(assign_tempbalance(eta_t, metric_map, config.s1, config.s2))
        elif metric_map:
            per_layer.update(assign_variant(eta_t, metric_map, config.assignment, config.s1, config.s2))

    return ScheduleDecision(
        epoch=t, eta_t=eta_t, per_layer=per_layer, alphas_used=metric_map, analyses=analyses
    )
