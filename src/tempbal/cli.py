"""Command-line entry point: analyze / train / rmt subcommands.

    tempbal analyze <snapshot.wsnp> [--policy median|ks|fixfinger] [--bins N] [--out-dir D]
    tempbal train --config <path> [--seed N] [--out-dir D]
    tempbal rmt --q 64,256,1024 --s 0.5:3.0:0.25 [--out table.csv] [--seed N]

Exit codes: 0 success, 1 usage/config error, 2 data/parse error,
3 numerical failure.

Training is configured by a flat key=value file ('#' starts a comment,
missing keys take defaults, unknown keys are rejected). CONFIG_KEYS lists
every key with its type, default and meaning; `tempbal train --help`
prints it.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Any, Callable
from urllib.parse import quote

from .errors import ConfigError, NumericalError, TempbalError
from .htsr import POLICY_VARIANTS, LambdaMinPolicy, LayerMetrics, analyze_snapshot, log10_histogram
from .rmt_lab import MAX_SIZE, max_decay, verify_s_alpha
from .scheduler import ASSIGNMENTS, METRICS, ScheduleConfig
from .train_engine import (
    ACTIVATIONS,
    INIT_SCHEMES,
    CsvDataSpec,
    GaussianMixtureSpec,
    ModelSpec,
    OptimState,
    conv_output_shape,
    make_dataset,
    run_training,
    write_table,
)
from .weight_store import load_snapshot, save_snapshot

# CI gate for the s vs alpha sweep; calibrated on the median-policy sweep
# over s in [0.5, 3.0], where matrices of size >= 64 fit well inside it.
RMT_REL_ERR_TOL = 0.15
RMT_GATE_MIN_SIZE = 64
RMT_GATE_S_RANGE = (0.5, 3.0)
# most values a start:stop:step grid may expand to
MAX_GRID_VALUES = 10_000


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


# Config value parsers: text in, typed value out, ValueError on malformed text.


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected integer, got {raw!r}") from None


def _float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected boolean, got {raw!r}")


def nonnegative_int(raw: str) -> int:
    """An integer >= 0, the only seeds numpy generators take."""
    value = _int(raw)
    if value < 0:
        raise ValueError(f"expected a nonnegative integer, got {raw!r}")
    return value


def _optional_int(raw: str) -> int | None:
    return _int(raw) if raw else None


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(_int(p) for p in raw.split(",") if p.strip())


def _dims(raw: str, rank: int, layout: str) -> tuple[int, ...]:
    parts = raw.split("x")
    if len(parts) != rank:
        raise ValueError(f"expected {layout}, got {raw!r}")
    return tuple(_int(p) for p in parts)


def _conv_stem(raw: str) -> tuple[tuple[int, int, int, int], ...]:
    if not raw:
        return ()
    return tuple(_dims(block, 4, "out x in x kh x kw blocks") for block in raw.split(","))


def _conv_input(raw: str) -> tuple[int, int, int] | None:
    return _dims(raw, 3, "channels x height x width") if raw else None


def _one_of(*options: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected {' or '.join(options)}, got {raw!r}")
        return raw

    return parse


@dataclass(frozen=True)
class ConfigKey:
    """One training config key: its parser, typed default and meaning."""

    parse: Callable[[str], Any]
    default: Any
    meaning: str


_RUN_PARAMS = inspect.signature(run_training).parameters

# Every `tempbal train` config key. Defaults that a library class or
# run_training already declares are read from it; range and choice checks
# stay in the classes the values are handed to.
CONFIG_KEYS: dict[str, ConfigKey] = {
    "eta0": ConfigKey(_float, 0.1, "initial global learning rate"),
    "total_epochs": ConfigKey(_int, 30, "cosine annealing horizon T"),
    "epochs": ConfigKey(_optional_int, _RUN_PARAMS["epochs"].default, "epochs to actually run (unset: total_epochs)"),
    "s1": ConfigKey(_float, ScheduleConfig.s1, "lower scaling ratio, in (0, 1]"),
    "s2": ConfigKey(_float, ScheduleConfig.s2, "upper scaling ratio, at least 1"),
    "assignment": ConfigKey(str, ScheduleConfig.assignment, "|".join(ASSIGNMENTS)),
    "metric": ConfigKey(str, ScheduleConfig.metric, "|".join(METRICS)),
    "start_epoch": ConfigKey(_int, ScheduleConfig.start_epoch, "epochs before layer-wise rates engage"),
    "update_interval_iters": ConfigKey(
        _int, ScheduleConfig.update_interval_iters, "iterations between schedule refreshes"
    ),
    "exclude_first_last": ConfigKey(
        _bool, ScheduleConfig.exclude_first_last, "first/last layers ride the global rate"
    ),
    "policy": ConfigKey(str, LambdaMinPolicy.variant, "|".join(POLICY_VARIANTS)),
    "policy_bins": ConfigKey(_int, LambdaMinPolicy.histogram_bins, "histogram bins for fixfinger"),
    "hidden": ConfigKey(_ints, (32, 16), "dense hidden widths"),
    "activation": ConfigKey(str, ModelSpec.activation, "|".join(ACTIVATIONS)),
    "init": ConfigKey(str, ModelSpec.init, "|".join(INIT_SCHEMES)),
    "conv_stem": ConfigKey(_conv_stem, ModelSpec.conv_stem, "e.g. 4x1x3x3,8x4x3x3 (out,in,kh,kw blocks)"),
    "conv_input": ConfigKey(_conv_input, ModelSpec.conv_input, "e.g. 1x8x8 (channels x height x width)"),
    "dataset": ConfigKey(_one_of("gaussian", "csv"), "gaussian", "gaussian|csv"),
    "classes": ConfigKey(_int, GaussianMixtureSpec.classes, "gaussian: number of classes"),
    "dim": ConfigKey(_int, GaussianMixtureSpec.dim, "gaussian: feature dimension"),
    "samples": ConfigKey(_int, GaussianMixtureSpec.samples, "gaussian: total samples"),
    "spread": ConfigKey(_float, GaussianMixtureSpec.spread, "gaussian: within-class std"),
    "separation": ConfigKey(_float, GaussianMixtureSpec.separation, "gaussian: norm of each class mean"),
    "split": ConfigKey(_float, GaussianMixtureSpec.split, "train fraction"),
    "csv_path": ConfigKey(str, "", "csv: input file"),
    "label_column": ConfigKey(str, CsvDataSpec.label_column, "csv: label column name"),
    "lambda_sr": ConfigKey(
        _float, _RUN_PARAMS["lambda_sr"].default, "top-singular-value penalty coefficient"
    ),
    "batch_size": ConfigKey(_int, OptimState.batch_size, "SGD minibatch size"),
    "momentum": ConfigKey(_float, OptimState.momentum, "SGD momentum"),
    "weight_decay": ConfigKey(_float, OptimState.weight_decay, "SGD weight decay"),
    "seed": ConfigKey(
        nonnegative_int, _RUN_PARAMS["seed"].default, "data, init and shuffle seed (--seed overrides)"
    ),
    "timing": ConfigKey(_one_of("wall", "off"), "wall", "wall|off (off zeroes CSV wall-times)"),
}


def _show(value) -> str:
    """A default as config text; (none) for an unset key."""
    if value is None or value in ("", ()):
        return "(none)"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def _config_help() -> str:
    lines = [
        "config file: one 'key = value' per line, '#' starts a comment, missing keys take the default",
        "",
        f"  {'key':<24} {'default':<12} meaning",
    ]
    for key, spec in CONFIG_KEYS.items():
        lines.append(f"  {key:<24} {_show(spec.default):<12} {spec.meaning}")
    return "\n".join(lines)


def parse_config(path: str) -> dict[str, Any]:
    """Typed values of a flat key=value config; unknown keys rejected, missing keys defaulted."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    values = {key: spec.default for key, spec in CONFIG_KEYS.items()}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key {key}")
        try:
            values[key] = CONFIG_KEYS[key].parse(raw.strip())
        except ValueError as exc:
            raise ConfigError(f"key {key}: {exc}") from None
    return values


METRICS_HEADER = ",".join(("layer", "n", "m", *(f.name for f in fields(LayerMetrics)), "status"))
MAX_FILE_NAME = 255  # bytes in one path component on common filesystems


def _histogram_file_name(layer: str) -> str:
    """esd_<percent-encoded layer>.csv, one-to-one in the layer name and at most MAX_FILE_NAME bytes.

    A name too long for that keeps a prefix of its encoding, then '%-' and the
    SHA-256 of the whole name. quote() never writes '%-', so a shortened name
    cannot equal an unshortened one.
    """
    file_name = f"esd_{quote(layer, safe='')}.csv"
    if len(file_name) <= MAX_FILE_NAME:
        return file_name
    import hashlib  # here, not at the top: it maps OpenSSL, about 4 MiB, into every tempbal process

    digest = "%-" + hashlib.sha256(layer.encode()).hexdigest() + ".csv"
    return file_name[: MAX_FILE_NAME - len(digest)] + digest


def cmd_analyze(args) -> int:
    policy = LambdaMinPolicy(variant=args.policy, histogram_bins=args.bins)
    rows = analyze_snapshot(load_snapshot(args.snapshot), policy)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    no_fit = (None,) * len(fields(LayerMetrics))
    table = (
        (row.name, row.n, row.m, *astuple(row.metrics), "ok") if row.metrics
        else (row.name, row.n, row.m, *no_fit, f"degenerate: {row.error}")
        for row in rows
    )
    metrics_path = out_dir / "metrics.csv"
    with open(metrics_path, "w", newline="", encoding="utf-8") as fh:
        write_table(fh, METRICS_HEADER, table)

    for row in rows:
        bins = []
        if row.esd is not None and row.esd.lambda_max > 0:
            counts, edges = log10_histogram(row.esd.eigenvalues, args.bins)
            bins = zip(edges[:-1], edges[1:], counts)
        with open(out_dir / _histogram_file_name(row.name), "w", newline="", encoding="utf-8") as fh:
            write_table(fh, "log10_lambda_left,log10_lambda_right,count", bins)

    print(f"analyzed {len(rows)} layers -> {metrics_path}")
    return 0


def _from_config(cls, cfg: dict[str, Any], **given):
    """cls built from the config keys named like its fields, plus the given fields."""
    names = [f.name for f in fields(cls) if f.name in cfg and f.name not in given]
    return cls(**{name: cfg[name] for name in names}, **given)


def cmd_train(args) -> int:
    cfg = parse_config(args.config)
    seed = cfg["seed"] if args.seed is None else args.seed
    if cfg["dataset"] == "csv":
        if not cfg["csv_path"]:
            raise ConfigError("dataset=csv requires csv_path")
        # read once, here: the model's input width and class count come from the file
        data = make_dataset(_from_config(CsvDataSpec, cfg, path=cfg["csv_path"]), seed)
        in_dim, n_classes = data.dim, data.n_classes
    else:
        data = _from_config(GaussianMixtureSpec, cfg)
        in_dim, n_classes = data.dim, data.classes
    if cfg["conv_stem"] and cfg["conv_input"]:
        in_dim = math.prod(conv_output_shape(cfg["conv_stem"], cfg["conv_input"]))
    model = _from_config(ModelSpec, cfg, widths=(in_dim, *cfg["hidden"], n_classes), seed=seed)
    sched = _from_config(ScheduleConfig, cfg)
    policy = LambdaMinPolicy(variant=cfg["policy"], histogram_bins=cfg["policy_bins"])
    optim = _from_config(OptimState, cfg)
    telemetry, final = run_training(
        model, data, sched, policy, lambda_sr=cfg["lambda_sr"], epochs=cfg["epochs"], seed=seed, optim=optim
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    telemetry_path = out_dir / "telemetry.csv"
    with open(telemetry_path, "w", encoding="utf-8") as fh:
        telemetry.write_csv(fh, timing=cfg["timing"] == "wall")
    save_snapshot(final, str(out_dir / "final.wsnp"))

    epoch_rows = telemetry.epoch_rows()
    final_acc = epoch_rows[-1].eval_acc if epoch_rows else float("nan")
    total_epoch = telemetry.total_epoch_sec()
    overhead = 100.0 * telemetry.total_analysis_sec() / total_epoch if total_epoch > 0 else 0.0
    print(f"final eval accuracy: {final_acc:.4f}")
    print(f"analysis overhead: {overhead:.2f}% of training time")
    return 0


def _parse_grid(raw: str, what: str) -> list[float]:
    """Finite values from a comma list (1,2,3) or colon range (start:stop:step, stop inclusive)."""
    raw = raw.strip()
    if not raw:
        raise ConfigError(f"empty {what} grid")
    is_range = ":" in raw
    try:
        values = [_float(p) for p in raw.split(":" if is_range else ",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"{what} grid: {exc}") from None
    if not is_range:
        return values
    if len(values) != 3:
        raise ConfigError(f"{what} range must be start:stop:step, got {raw!r}")
    start, stop, step = values
    if step <= 0 or stop < start:
        raise ConfigError(f"{what} range: need step > 0 and stop >= start")
    steps = (stop - start) / step  # inf when the quotient overflows
    if steps > MAX_GRID_VALUES - 1:
        raise ConfigError(f"{what} range {raw!r} expands to more than {MAX_GRID_VALUES} values")
    count = int(round(steps)) + 1
    return [start + i * step for i in range(count) if start + i * step <= stop + 1e-12]


def cmd_rmt(args) -> int:
    sizes = _parse_grid(args.q, "q")
    if not all(q.is_integer() and q > 0 for q in sizes):
        raise ConfigError(f"q grid: matrix sizes must be positive integers, got {args.q!r}")
    table = []
    violations = []
    for row in verify_s_alpha([int(q) for q in sizes], _parse_grid(args.s, "s"), seed=args.seed):
        table.append((row.size, f"{row.decay:g}", row.alpha_hill, row.alpha_pred, row.rel_err))
        gated = row.size >= RMT_GATE_MIN_SIZE and RMT_GATE_S_RANGE[0] <= row.decay <= RMT_GATE_S_RANGE[1]
        if gated and row.rel_err > RMT_REL_ERR_TOL:
            violations.append(row)
    header = "Q,s,alpha_hill,alpha_pred,rel_err"
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            write_table(fh, header, table)
        print(f"wrote {len(table)} cells -> {args.out}")
    else:
        write_table(sys.stdout, header, table)
    if violations:
        worst = max(violations, key=lambda r: r.rel_err)
        raise NumericalError(
            f"{len(violations)} sweep cells exceed rel_err tolerance {RMT_REL_ERR_TOL} "
            f"(worst: Q={worst.size} s={worst.decay:g} rel_err={worst.rel_err:.4f})"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tempbal", description="Spectral diagnostics and layer-wise LR scheduling")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="per-layer tail metrics of a weight snapshot")
    p_analyze.add_argument("snapshot", help="path to a .wsnp snapshot file")
    p_analyze.add_argument("--policy", default=LambdaMinPolicy.variant, help="|".join(POLICY_VARIANTS))
    p_analyze.add_argument("--bins", type=int, default=LambdaMinPolicy.histogram_bins, help="histogram bins (fixfinger and ESD output)")
    p_analyze.add_argument("--out-dir", default=".", help="where to write metrics.csv and ESD histograms")
    p_analyze.set_defaults(func=cmd_analyze)

    p_train = sub.add_parser(
        "train",
        help="run the training loop under a config file",
        epilog=_config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_train.add_argument("--config", required=True, help="flat key=value config file")
    p_train.add_argument("--seed", type=nonnegative_int, default=None, help="override the config seed")
    p_train.add_argument("--out-dir", default=".", help="where to write telemetry.csv and final.wsnp")
    p_train.set_defaults(func=cmd_train)

    p_rmt = sub.add_parser("rmt", help="verify the decay-exponent vs tail-exponent relation")
    p_rmt.add_argument("--q", required=True, help=f"matrix sizes in [8, {MAX_SIZE}], e.g. 64,256,1024")
    p_rmt.add_argument(
        "--s",
        required=True,
        help="decay exponents, e.g. 0.5:3.0:0.25 or 1.0,2.0; each needs (Q//2+1)^-s above the ESD's "
        f"roundoff floor Q*eps, i.e. s < {max_decay(64):.3g} at Q=64, {max_decay(1024):.3g} at Q=1024",
    )
    p_rmt.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p_rmt.add_argument("--seed", type=nonnegative_int, default=0)
    p_rmt.set_defaults(func=cmd_rmt)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except TempbalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # sizes in a config beyond what numpy can allocate
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
