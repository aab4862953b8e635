"""Minimal deterministic training loop driving the layer-wise scheduler.

A small fully-connected network (optionally behind a conv stem) is trained
with SGD plus momentum and weight decay on synthetic or CSV data. Forward
and backward passes are written directly in numpy (conv as matmul over
flattened patches) so gradient checks against finite differences stay
meaningful. At every update-interval boundary the current weights are
snapshotted, analyzed, and the per-layer learning rates refreshed; biases
and other 1-D parameters always ride the global rate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, field, fields, replace
from time import perf_counter
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import ConfigError, DataError, NumericalError, integral
from .esd import gram, matrix
from .htsr import LambdaMinPolicy
from .scheduler import ScheduleConfig, ScheduleDecision, schedule_epoch
from .weight_store import LayerTensor, WeightSnapshot

ACTIVATIONS = ("relu", "tanh")
INIT_SCHEMES = ("he", "xavier")


class DivergenceError(NumericalError):
    """Training loss or an eval logit became non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch} (non-finite loss or eval logit)")
        self.epoch = epoch


class ConvergenceError(NumericalError):
    """The SNR gradient's top singular pair, from the Gram eigensolve, missed its residual bound."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class CsvParseError(DataError):
    """Malformed row or header in a CSV dataset."""


# ---------------------------------------------------------------------------
# model


@dataclass(frozen=True)
class ModelSpec:
    """Network shape: dense widths [input features, h..., classes], and an optional conv stem that reads the input."""

    widths: tuple[int, ...]
    activation: str = "relu"
    init: str = "he"
    conv_stem: tuple[tuple[int, int, int, int], ...] = ()
    conv_input: tuple[int, int, int] | None = None
    # each weight layer's (name, shape) in forward order, from the one walk of the stem made here: conv blocks
    # (out, in, kh, kw) from conv_input (valid convolutions, stride 1), then dense (out, in), dense0 reading the
    # stem's flattened output; a conv_input with a size below 1 or other than widths[0] features, a block with a size
    # below 1, other in-channels than the stage before, or a kernel larger than its input is a ConfigError
    layers: tuple[tuple[str, tuple[int, ...]], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(integral(w, "a width") for w in self.widths))
        stem = tuple(tuple(integral(v, "a conv block size") for v in block) for block in self.conv_stem)
        object.__setattr__(self, "conv_stem", stem)
        if self.conv_input is not None:
            object.__setattr__(self, "conv_input", tuple(integral(v, "a conv_input size") for v in self.conv_input))
        if len(self.widths) < 3:
            raise ConfigError("need at least 2 dense layers (widths of length >= 3)")
        if any(w <= 0 for w in self.widths):
            raise ConfigError(f"widths must be positive, got {self.widths}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.init not in INIT_SCHEMES:
            raise ConfigError(f"unknown init scheme {self.init!r}")
        if self.conv_stem and self.conv_input is None:
            raise ConfigError("conv_stem requires conv_input (channels, height, width)")
        if self.conv_input is not None and not self.conv_stem:
            raise ConfigError("conv_input is given but there is no conv_stem to read it")
        c, h, w = self.conv_input or (self.widths[0], 1, 1)  # the input's widths[0] features as one (c, h, w) volume
        if min(c, h, w) < 1:
            raise ConfigError(f"conv_input sizes must be positive, got {(c, h, w)}")
        if c * h * w != self.widths[0]:
            raise ConfigError(f"conv_input {c}x{h}x{w} holds {c * h * w} features but the input has {self.widths[0]}")
        layers = []
        for idx, (out, cin, kh, kw) in enumerate(self.conv_stem):
            if min(out, cin, kh, kw) < 1:
                raise ConfigError(f"conv block {idx} sizes must be positive, got {(out, cin, kh, kw)}")
            if cin != c:
                raise ConfigError(f"conv block {idx} expects {cin} input channels, previous stage has {c}")
            h, w = h - kh + 1, w - kw + 1
            if h <= 0 or w <= 0:
                raise ConfigError(f"conv block {idx} kernel ({kh}x{kw}) larger than its input")
            c = out
            layers.append((f"conv{idx}", (out, cin, kh, kw)))
        widths = (c * h * w, *self.widths[1:])
        layers += ((f"dense{idx}", (widths[idx + 1], widths[idx])) for idx in range(len(widths) - 1))
        object.__setattr__(self, "layers", tuple(layers))


def init_params(spec: ModelSpec, seed: int) -> dict[str, np.ndarray]:
    """Initial parameters drawn from seed; weight keys '<layer>.w', biases '<layer>.b'."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in spec.layers:
        fan_in, fan_out = math.prod(shape[1:]), shape[0] * math.prod(shape[2:])  # (in, out) for a dense layer
        try:
            if spec.init == "he":
                params[f"{name}.w"] = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape)
            else:
                bound = math.sqrt(6.0 / (fan_in + fan_out))
                params[f"{name}.w"] = rng.uniform(-bound, bound, size=shape)
        except ValueError as exc:  # a size beyond numpy's index range
            raise ConfigError(f"cannot allocate a layer of shape {shape}: {exc}") from None
        params[f"{name}.b"] = np.zeros(shape[0])
    return params


def snapshot_params(params: dict[str, np.ndarray], spec: ModelSpec, epoch: int) -> WeightSnapshot:
    """Snapshot of the 2-D/4-D weight tensors (biases are not analyzed); it views the arrays in params, copying none."""
    return WeightSnapshot(epoch, (LayerTensor(name, params[f"{name}.w"]) for name, _ in spec.layers))


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    """Write the activation over z, in place, and return z."""
    return np.maximum(z, 0.0, out=z) if kind == "relu" else np.tanh(z, out=z)


def _act_grad(a: np.ndarray, kind: str) -> np.ndarray:
    """The activation's derivative, read from its output a: relu's mask a > 0, tanh's 1 - a*a."""
    return a > 0 if kind == "relu" else 1.0 - a * a


def _im2col(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(B, C, H, W) -> (B*H'*W', C*kh*kw) patches for valid conv, stride 1."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    b, c, hp, wp = windows.shape[:4]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b * hp * wp, c * kh * kw)
    return np.ascontiguousarray(cols)


def _col2im(dcols: np.ndarray, x_shape, kh: int, kw: int) -> np.ndarray:
    """Scatter-add patch gradients back onto the (B, C, H, W) input."""
    b, c, h, w = x_shape
    hp, wp = h - kh + 1, w - kw + 1
    dcols = dcols.reshape(b, hp, wp, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    dx = np.zeros(x_shape)
    for ki in range(kh):
        for kj in range(kw):
            dx[:, :, ki:ki + hp, kj:kj + wp] += dcols[:, :, :, :, ki, kj]
    return dx


def _forward(params, spec: ModelSpec, x: np.ndarray):
    """Logits, and each layer's (input shape, rows its matrix multiplied, activation); a conv one is (B, C, H, W)."""
    cache = []
    a = x.reshape(-1, *spec.conv_input) if spec.conv_stem else x
    for idx, (name, shape) in enumerate(spec.layers):
        conv = len(shape) == 4
        rows = _im2col(a, *shape[2:]) if conv else a.reshape(a.shape[0], -1)
        z = rows @ params[f"{name}.w"].reshape(shape[0], -1).T
        z += params[f"{name}.b"]
        if idx < len(spec.layers) - 1:
            _act(z, spec.activation)
        if conv:
            hp, wp = a.shape[2] - shape[2] + 1, a.shape[3] - shape[3] + 1
            z = z.reshape(a.shape[0], hp, wp, shape[0]).transpose(0, 3, 1, 2)
        cache.append((a.shape, rows, z))
        a = z
    return a, cache


def _softmax_ce(logits: np.ndarray, y: np.ndarray):
    """Mean cross-entropy and its gradient w.r.t. the logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    eps = np.finfo(np.float64).tiny
    loss = float(-np.mean(np.log(probs[np.arange(n), y] + eps)))
    dlogits = probs
    dlogits[np.arange(n), y] -= 1.0
    return loss, dlogits / n


def loss_and_grads(params, spec: ModelSpec, x: np.ndarray, y: np.ndarray):
    """Cross-entropy loss and analytic gradients for every parameter."""
    logits, cache = _forward(params, spec, x)
    loss, delta = _softmax_ce(logits, y)
    grads: dict[str, np.ndarray] = {}
    layers = spec.layers
    for idx in range(len(layers) - 1, -1, -1):
        name, shape = layers[idx]
        x_shape, rows, out = cache[idx]
        conv = len(shape) == 4
        if idx < len(layers) - 1:
            delta *= _act_grad(out, spec.activation)  # this layer's activation
        if conv:  # one row per output position, as the patches are
            delta = delta.transpose(0, 2, 3, 1).reshape(-1, shape[0])
        grads[f"{name}.w"] = (delta.T @ rows).reshape(shape)
        grads[f"{name}.b"] = delta.sum(axis=0)
        if idx > 0:  # the first layer's input gradient feeds nothing
            delta = delta @ params[f"{name}.w"].reshape(shape[0], -1)
            delta = _col2im(delta, x_shape, *shape[2:]) if conv else delta.reshape(x_shape)
    return loss, grads


def predict(params, spec: ModelSpec, x: np.ndarray, batch_size: int) -> np.ndarray:
    """Predicted class of each row, from forward passes over chunks of batch_size rows.

    Only one chunk's activations are alive at a time, so memory tracks
    batch_size and not len(x). A non-finite logit, which has no argmax to
    trust, raises NumericalError.
    """
    labels = np.empty(len(x), dtype=np.intp)
    for start in range(0, len(x), batch_size):
        logits, _ = _forward(params, spec, x[start:start + batch_size])
        if not np.isfinite(logits).all():
            raise NumericalError(f"non-finite logit in rows {start} to {start + len(logits) - 1}")
        labels[start:start + batch_size] = np.argmax(logits, axis=1)
    return labels


def accuracy(params, spec: ModelSpec, x: np.ndarray, y: np.ndarray, batch_size: int) -> float:
    return float(np.mean(predict(params, spec, x, batch_size) == y))


# ---------------------------------------------------------------------------
# optimizer


@dataclass(frozen=True)
class OptimState:
    """SGD hyperparameters; each run_training holds its own momentum buffers, which start at zero."""

    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 128

    def __post_init__(self):
        object.__setattr__(self, "batch_size", integral(self.batch_size, "batch_size"))
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and nonnegative, got {self.weight_decay}")


def sgd_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    optim: OptimState,
    lr_map: dict[str, float],
) -> None:
    """v <- momentum*v + g + weight_decay*w; w <- w - lr*v, per parameter, with v = velocity[name].

    Each parameter array and momentum buffer is updated in place; nothing is returned.
    """
    for name, w in params.items():
        g = grads[name]
        if g.shape != w.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {name} {w.shape}")
        if name not in lr_map:
            raise ValueError(f"no learning rate for parameter {name}")
        buf = velocity[name]
        buf *= optim.momentum
        buf += g
        buf += optim.weight_decay * w
        w -= lr_map[name] * buf


def snr_grad_term(
    layer: LayerTensor,
    lambda_sr: float,
    tol: float = 1e-9,
) -> np.ndarray:
    """Gradient of the penalty (lambda_sr/2) * sigma(W)^2 at a simple top singular value.

    Returns lambda_sr * sigma * u v^T in the layer's own shape; zeros when
    lambda_sr is 0 or W is the zero matrix.

    u is the top eigenvector of the Gram matrix W W^T from one symmetric
    eigensolve, sigma = ||W^T u|| and v = W^T u / sigma; unlike power
    iteration, the cost does not grow as sigma_2 / sigma_1 nears 1. The
    pair must satisfy ||W v - sigma u|| <= tol * sigma, else
    ConvergenceError.
    """
    w = matrix(layer.values)
    inc = np.zeros_like(layer.values)
    if lambda_sr == 0.0 or not w.any():
        return inc
    u = np.linalg.eigh(gram(layer))[1][:, -1]
    wu = w.T @ u
    sigma = float(np.linalg.norm(wu))
    v = wu / sigma
    residual = float(np.linalg.norm(w @ v - sigma * u))
    if not residual <= tol * sigma:
        raise ConvergenceError(
            f"{layer.name!r}: top singular pair has residual {residual:.3e} > tol * sigma", residual
        )
    np.multiply(lambda_sr * sigma, np.outer(u, v), out=matrix(inc))  # written through W's view of inc
    return inc


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class GaussianMixtureSpec:
    """Synthetic classification data: one Gaussian blob per class."""

    classes: int = 2
    dim: int = 20
    samples: int = 1000
    spread: float = 1.0
    separation: float = 4.0
    split: float = 0.8

    def __post_init__(self):
        for name in ("classes", "dim", "samples"):
            object.__setattr__(self, name, integral(getattr(self, name), name))
        if self.classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.classes}")
        if self.dim < 1 or self.samples < self.classes:
            raise ConfigError("each class needs at least one sample")
        if not 0.0 < self.split < 1.0:
            raise ConfigError(f"split must be in (0, 1), got {self.split}")
        if not (0 <= self.spread < math.inf and 0 <= self.separation < math.inf):
            raise ConfigError("spread and separation must be finite and nonnegative")


@dataclass(frozen=True)
class CsvDataSpec:
    """Tabular classification data from a CSV file with a header row."""

    path: str
    label_column: str = "label"
    split: float = GaussianMixtureSpec.split

    def __post_init__(self):
        if not 0.0 < self.split < 1.0:
            raise ConfigError(f"split must be in (0, 1), got {self.split}")


@dataclass
class Dataset:
    """A train/eval split; batches shuffles the train set anew for each epoch and seed."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_eval: np.ndarray
    y_eval: np.ndarray
    n_classes: int

    def __post_init__(self):
        for split, x, y in (("train", self.x_train, self.y_train), ("eval", self.x_eval, self.y_eval)):
            if not len(x) or len(x) != len(y):
                raise DataError(f"{split} set of {len(x)} rows and {len(y)} labels: need >= 1 row, each labelled")
            if x.ndim != 2 or x.shape[1] != self.x_train.shape[1]:  # the train set is checked first
                raise DataError(f"{split} set of shape {x.shape}: need a 2-D set as wide as the train set")
            if x.dtype.kind not in "biuf" or not np.isfinite(x).all():  # _load_csv names the row, lost here
                raise DataError(f"{split} set holds a non-finite or non-numeric feature")
            if y.dtype.kind not in "iu" or y.ndim != 1 or not 0 <= y.min() <= y.max() < self.n_classes:
                raise DataError(f"{split} labels must be a 1-D array of integers in [0, {self.n_classes})")

    @property
    def dim(self) -> int:
        return self.x_train.shape[1]

    def batches(self, epoch: int, batch_size: int, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        order = np.random.default_rng([seed, 7919, epoch]).permutation(len(self.x_train))
        for start in range(0, len(order), batch_size):
            sel = order[start:start + batch_size]
            yield self.x_train[sel], self.y_train[sel]


def _load_csv(spec: CsvDataSpec) -> tuple[np.ndarray, np.ndarray]:
    try:
        fh = open(spec.path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open dataset {spec.path!r}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        rows = filter(None, reader)  # csv reads a blank line as []
        try:
            header = next(rows, None)
            if header is None:
                raise CsvParseError(f"{spec.path!r}: empty file")
            header = [name.strip() for name in header]
            if spec.label_column not in header:
                raise CsvParseError(f"{spec.path!r}: label column {spec.label_column!r} not found")
            label_idx = header.index(spec.label_column)
            feature_idx = [i for i in range(len(header)) if i != label_idx]
            if not feature_idx:
                raise CsvParseError(f"{spec.path!r}: no feature columns")
            features, labels = [], []
            for row_no, row in enumerate(rows, start=1):
                if len(row) != len(header):
                    raise CsvParseError(f"{spec.path!r}: row {row_no} has {len(row)} fields, expected {len(header)}")
                label = row[label_idx].strip()
                if not label:
                    raise CsvParseError(f"{spec.path!r}: missing label value at row {row_no}")
                try:
                    values = [float(row[i]) for i in feature_idx]
                except ValueError as exc:
                    raise CsvParseError(f"{spec.path!r}: non-numeric feature at row {row_no}") from exc
                if not all(map(math.isfinite, values)):
                    raise CsvParseError(f"{spec.path!r}: non-finite feature at row {row_no}")
                features.append(values)
                labels.append(label)
        except UnicodeDecodeError as exc:  # decoded a chunk ahead of the reader, so no line is known
            raise CsvParseError(f"{spec.path!r}: not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise CsvParseError(f"{spec.path!r}: line {reader.line_num}: {exc}") from None
    if not labels:
        raise CsvParseError(f"{spec.path!r}: no data rows")
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise CsvParseError(f"{spec.path!r}: need at least 2 classes, got {len(classes)}")
    index = {label: i for i, label in enumerate(classes)}
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray([index[label] for label in labels], dtype=np.int64)
    return x, y


def make_dataset(spec: GaussianMixtureSpec | CsvDataSpec, seed: int) -> Dataset:
    """Materialize a dataset with a deterministic shuffle and train/eval split."""
    rng = np.random.default_rng([seed, 11])
    if isinstance(spec, GaussianMixtureSpec):
        try:
            means = rng.normal(size=(spec.classes, spec.dim))
            x = np.empty((spec.samples, spec.dim))
        except ValueError as exc:  # a size beyond numpy's index range
            sizes = f"samples = {spec.samples}, classes = {spec.classes}, dim = {spec.dim}"
            raise ConfigError(f"cannot allocate the dataset ({sizes}): {exc}") from None
        means *= spec.separation / np.linalg.norm(means, axis=1, keepdims=True)
        counts = np.full(spec.classes, spec.samples // spec.classes)
        counts[: spec.samples % spec.classes] += 1
        # one array, filled class block by class block in draw order: z*spread + mean
        for block, mean in zip(np.split(x, np.cumsum(counts)[:-1]), means):
            rng.standard_normal(out=block)
            block *= spec.spread
            block += mean
        y = np.repeat(np.arange(spec.classes, dtype=np.int64), counts)
    else:
        x, y = _load_csv(spec)
    order = rng.permutation(len(x))
    x, y = x[order], y[order]
    n_train = int(len(x) * spec.split)
    return Dataset(x[:n_train], y[:n_train], x[n_train:], y[n_train:], n_classes=int(y.max()) + 1)


# ---------------------------------------------------------------------------
# telemetry


@dataclass(frozen=True)
class TelemetryRow:
    epoch: int
    layer: str
    alpha_hill: float | None = None
    spectral_norm: float | None = None
    lr: float | None = None
    grad_l2: float | None = None
    train_loss: float | None = None
    eval_acc: float | None = None
    analysis_sec: float | None = None
    epoch_sec: float | None = None


TELEMETRY_HEADER = ",".join(f.name for f in fields(TelemetryRow))


@dataclass
class TrainTelemetry:
    """Per-epoch, per-layer training record; serializes to CSV."""

    rows: list[TelemetryRow] = field(default_factory=list)

    def epoch_rows(self) -> list[TelemetryRow]:
        return [r for r in self.rows if r.layer == "_epoch_"]

    def total_analysis_sec(self) -> float:
        return sum(r.analysis_sec or 0.0 for r in self.epoch_rows())

    def total_epoch_sec(self) -> float:
        return sum(r.epoch_sec or 0.0 for r in self.epoch_rows())

    def write_csv(self, fh: TextIO, timing: bool = True) -> None:
        """Write the telemetry table; timing=False zeroes the wall-clock fields.

        Wall times vary between runs, so reproducibility comparisons use
        timing=False to get byte-identical files.
        """
        def wall(sec):
            return sec if timing or sec is None else 0.0

        rows = [replace(r, analysis_sec=wall(r.analysis_sec), epoch_sec=wall(r.epoch_sec)) for r in self.rows]
        write_table(fh, TELEMETRY_HEADER, map(astuple, rows))


def write_table(fh: TextIO, header: str, rows: Iterable[Iterable]) -> None:
    """Write a CSV table: the header line (comma-separated names), then one line per row.

    Cells: None is empty, a Python or numpy float is repr(float(v)), which
    reads back exactly, anything else is str(v). A cell holding a comma,
    quote or line break is quoted, so a layer name reads back as one field.
    """
    fh.write(header + "\n")
    csv.writer(fh, lineterminator="\n").writerows(
        [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row] for row in rows
    )


# ---------------------------------------------------------------------------
# training loop


def _param_lr_map(decision: ScheduleDecision, params: dict[str, np.ndarray]) -> dict[str, float]:
    """Each parameter's rate: a weight <layer>.w takes its layer's rate, a bias rides eta_t."""
    eta_t, rates = decision.eta_t, decision.per_layer
    return {name: rates.get(name[:-2], eta_t) if name.endswith(".w") else eta_t for name in params}


# a diverging run overflows in its passes, SGD steps and eval: the loss and eval guards stop it, so numpy need not warn
@np.errstate(over="ignore", invalid="ignore")
def run_training(
    model: ModelSpec,
    data: GaussianMixtureSpec | CsvDataSpec | Dataset,
    sched: ScheduleConfig,
    policy: LambdaMinPolicy,
    lambda_sr: float = 0.0,
    epochs: int | None = None,
    seed: int = 0,
    optim: OptimState | None = None,
) -> tuple[TrainTelemetry, WeightSnapshot]:
    """Train for the given number of epochs, rescheduling at every window boundary.

    seed draws the whole run: the initial weights, every epoch's batch order
    and, when data is a dataset spec, its synthesis and split through
    make_dataset(data, seed); a Dataset already built holds the data fixed
    across seeds. Returns the telemetry table and the final weight snapshot.
    Aborts with DivergenceError as soon as a batch loss is non-finite, or an
    epoch's eval pass meets a non-finite logit.
    """
    epochs = sched.total_epochs if epochs is None else integral(epochs, "epochs")
    if not 0 <= epochs <= sched.total_epochs:
        raise ConfigError(f"epochs must be in [0, total_epochs={sched.total_epochs}], got {epochs}")
    if not 0 <= lambda_sr < math.inf:
        raise ConfigError(f"lambda_sr must be finite and nonnegative, got {lambda_sr}")
    dataset = data if isinstance(data, Dataset) else make_dataset(data, seed)
    if dataset.dim != model.widths[0]:
        raise ConfigError(f"dataset dim {dataset.dim} does not match model input {model.widths[0]}")
    if dataset.n_classes != model.widths[-1]:
        raise ConfigError(
            f"dataset has {dataset.n_classes} classes but model outputs {model.widths[-1]}"
        )
    optim = optim if optim is not None else OptimState()
    params = init_params(model, seed)
    velocity = {name: np.zeros_like(w) for name, w in params.items()}
    layer_names = [name for name, _ in model.layers]
    telemetry = TrainTelemetry()
    last_grad_norms: dict[str, float] | None = None

    for t in range(epochs):
        epoch_start = perf_counter()
        analysis_sec = 0.0
        batch_losses = []
        for it, (xb, yb) in enumerate(dataset.batches(t, optim.batch_size, seed)):
            if it % sched.update_interval_iters == 0:  # it restarts at 0, so each epoch refreshes first
                a0 = perf_counter()
                snap = snapshot_params(params, model, epoch=t)
                decision = schedule_epoch(sched, snap, policy, grad_norms=last_grad_norms)
                lr_map = _param_lr_map(decision, params)
                analysis_sec += perf_counter() - a0
            loss, grads = loss_and_grads(params, model, xb, yb)
            if not math.isfinite(loss):
                raise DivergenceError(t)
            batch_losses.append(loss)
            if lambda_sr > 0.0:
                a0 = perf_counter()
                for layer in snap.layers:  # the refresh's snapshot views the live weights
                    grads[f"{layer.name}.w"] += snr_grad_term(layer, lambda_sr)
                analysis_sec += perf_counter() - a0
            last_grad_norms = {
                name: float(np.linalg.norm(grads[f"{name}.w"])) for name in layer_names
            }
            sgd_step(params, grads, velocity, optim, lr_map)
            del grads  # so the next step's loss_and_grads runs without this step's gradients
        try:
            eval_acc = accuracy(params, model, dataset.x_eval, dataset.y_eval, optim.batch_size)
        except NumericalError as exc:
            raise DivergenceError(t) from exc
        train_loss = float(np.mean(batch_losses))
        epoch_sec = perf_counter() - epoch_start
        fits = {row.name: row.metrics for row in decision.analyses}
        for name in layer_names:
            metrics = fits.get(name)
            telemetry.rows.append(
                TelemetryRow(
                    epoch=t,
                    layer=name,
                    alpha_hill=metrics.alpha_hill if metrics else None,
                    spectral_norm=metrics.spectral_norm if metrics else None,
                    lr=decision.per_layer[name],
                    grad_l2=last_grad_norms[name],
                )
            )
        telemetry.rows.append(
            TelemetryRow(
                epoch=t,
                layer="_epoch_",
                train_loss=train_loss,
                eval_acc=eval_acc,
                analysis_sec=analysis_sec,
                epoch_sec=epoch_sec,
            )
        )
    final = snapshot_params(params, model, epoch=epochs)
    return telemetry, final
