"""Golden outputs of tiny `tempbal train`, `analyze` and `rmt` runs, and their one writer.

    PYTHONPATH=src python tests/goldens.py

reruns every golden case and prints each cell that moved from the committed
files under tests/golden/<case>/. It writes the new outputs of a case in
place of its files only when the case is new or one of its cells moved; any
other case keeps its files as they are, bytes and all.
A change that moves a golden names the cells and the reason in CHANGES.md.

The cases: `train` of one tiny config under each assignment, under the ks
and fixfinger policies, with `start_epoch`, on a CSV dataset, with the SNR
penalty, and with a conv stem under fixfinger and the SNR penalty, under relu
and he init and under tanh and xavier init;
`analyze` under each policy of one seeded snapshot file holding a tall
layer (read from the file in blocks), a conv layer, a rank-deficient layer,
a flat layer and a zero layer; `analyze` under ks of a file holding one
700 x 300 tall layer, whose n = 300 is ragged in both its blocks of rows and
its Gram's strips; and one small `rmt` grid.

Outputs are compared as parsed cells, not bytes, because BLAS thread counts
move the last bits of a float. Integer and text cells must match exactly;
float cells and each snapshot layer match to REL_TOL relative, rmt cells to
RMT_TOL.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

from tempbal.cli import main
from tempbal.htsr import POLICY_VARIANTS
from tempbal.scheduler import ASSIGNMENTS
from tempbal.weight_store import LayerTensor, WeightSnapshot, read_snapshot, save_snapshot

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-13
# relative and absolute: rmt alphas move by up to 1.9e-11 across BLAS thread counts, and rel_err, below 1,
# by as much in absolute terms
RMT_TOL = 1e-10
INTEGER = re.compile(r"[+-]?\d+")

# five dense layers, three of them in the metric map, dense0 tall (10 x 6); 3 iterations per epoch, refreshed every 2
CONFIG = {
    "eta0": "0.1",
    "total_epochs": "3",
    "samples": "60",
    "dim": "6",
    "hidden": "10,8,8,8",
    "classes": "3",
    "batch_size": "16",
    "update_interval_iters": "2",
    "policy": "median",
    "seed": "5",
    "timing": "off",
}
# SNR on conv layers too: conv0 flattens to 4 x 9 and conv1 to 8 x 36; dense0 is 10 x 128, dense1 3 x 10
CONV_CONFIG = {
    **CONFIG,
    "dim": "64",
    "conv_stem": "4x1x3x3,8x4x3x3",
    "conv_input": "1x8x8",
    "hidden": "10",
    "policy": "fixfinger",
    "metric": "alpha_weighted",
    "exclude_first_last": "false",
    "lambda_sr": "0.001",
}
TRAIN_CASES = {
    # lars diverges at the default eta0
    **{a: {**CONFIG, "assignment": a, **({"eta0": "0.0005"} if a == "lars" else {})} for a in ASSIGNMENTS},
    "ks": {**CONFIG, "policy": "ks"},
    "fixfinger": {**CONFIG, "policy": "fixfinger"},
    "start_epoch": {**CONFIG, "start_epoch": "1"},
    # csv_data()'s 60 rows of 6 features and 3 text labels, written to this file name next to the config
    "csv": {**CONFIG, "csv_path": "data.csv"},
    "snr": {**CONFIG, "lambda_sr": "0.001"},
    "conv_fixfinger": CONV_CONFIG,
    # the one case of tanh and of xavier init
    "tanh": {**CONV_CONFIG, "activation": "tanh", "init": "xavier"},
}


def analyze_input() -> WeightSnapshot:
    """The analyze cases' snapshot: tall, conv, rank-deficient, flat and zero layers from one seed."""
    rng = np.random.default_rng(2024)
    return WeightSnapshot(
        epoch=3,
        layers=(
            LayerTensor("tall", rng.standard_t(3.0, size=(48, 16))),  # 16 x 48 after orientation, 3 blocks of 16 rows
            LayerTensor("conv", rng.normal(size=(8, 4, 3, 3))),
            LayerTensor("rank3", rng.normal(size=(12, 3)) @ rng.normal(size=(3, 20))),
            LayerTensor("flat", 3.0 * np.linalg.qr(rng.normal(size=(12, 8)))[0].T),
            LayerTensor("zero", np.zeros((6, 6))),
        ),
    )


def csv_data() -> str:
    """The csv case's dataset: 60 rows, 6 features around 3 class means, the text label in the middle column."""
    rng = np.random.default_rng(77)
    labels = rng.integers(0, 3, size=60)
    x = 2.0 * np.eye(3, 6)[labels] + rng.normal(size=(60, 6))
    rows = ([*map(repr, row[:3]), "abc"[label], *map(repr, row[3:])] for row, label in zip(x.tolist(), labels))
    return "".join(",".join(row) + "\n" for row in [["f0", "f1", "f2", "label", "f3", "f4", "f5"], *rows])


def tall_input() -> WeightSnapshot:
    """The analyze_tall case's snapshot: one Student-t layer of 700 x 300, read in blocks of 300, 300 and 100 rows."""
    rng = np.random.default_rng(700)
    return WeightSnapshot(epoch=1, layers=(LayerTensor("tall", rng.standard_t(3.0, size=(700, 300))),))


def _train(config: dict[str, str]) -> Callable[[Path, Path], list[str]]:
    def argv(out_dir: Path, work: Path) -> list[str]:
        if "csv_path" in config:
            data = work / config["csv_path"]
            data.write_text(csv_data(), encoding="utf-8")
            config_here = {**config, "csv_path": str(data)}
        else:
            config_here = config
        cfg = work / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in config_here.items()), encoding="utf-8")
        return ["train", "--config", str(cfg), "--out-dir", str(out_dir)]

    return argv


def _analyze(policy: str, snapshot: Callable[[], WeightSnapshot] = analyze_input) -> Callable[[Path, Path], list[str]]:
    def argv(out_dir: Path, work: Path) -> list[str]:
        path = work / "layers.wsnp"
        save_snapshot(snapshot(), str(path))
        return ["analyze", str(path), "--policy", policy, "--out-dir", str(out_dir)]

    return argv


def _rmt(out_dir: Path, work: Path) -> list[str]:
    return ["rmt", "--q", "32,64", "--s", "0.5:2.5:0.5", "--out", str(out_dir / "table.csv")]


# case -> the argv of its run, given its output directory and a scratch directory for its inputs
CASES: dict[str, Callable[[Path, Path], list[str]]] = {
    **{name: _train(config) for name, config in TRAIN_CASES.items()},
    **{f"analyze_{policy}": _analyze(policy) for policy in POLICY_VARIANTS},
    "analyze_tall": _analyze("ks", tall_input),
    "rmt": _rmt,
}


def run(case: str, out_dir: Path) -> None:
    """Run one golden case, writing its outputs, and nothing else, to out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        code = main(CASES[case](out_dir, Path(work)))
    if code:
        raise RuntimeError(f"golden run {case} exited {code}")


def _same_cell(expected: str, actual: str, tol: float, abs_tol: float) -> bool:
    if expected == actual:
        return True
    if INTEGER.fullmatch(expected) or INTEGER.fullmatch(actual):
        return False  # integers match exactly; write_table gives every float a '.', an 'e', inf or nan
    try:
        a, b = float(expected), float(actual)
    except ValueError:
        return False  # text matches exactly
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=tol, abs_tol=abs_tol)


def _table_moves(expected: Path, actual: Path, label: str, tol: float, abs_tol: float) -> list[str]:
    with open(expected, newline="", encoding="utf-8") as fh:
        old = list(csv.reader(fh))
    with open(actual, newline="", encoding="utf-8") as fh:
        new = list(csv.reader(fh))
    if old[:1] != new[:1] or len(old) != len(new) or any(len(a) != len(b) for a, b in zip(old, new)):
        return [f"{label}: table shape or header changed"]
    header = old[0]
    return [
        f"{label} row {row_no} ({','.join(a[:2])}) {column}: {x} -> {y}"
        for row_no, (a, b) in enumerate(zip(old[1:], new[1:]), start=1)
        for column, x, y in zip(header, a, b)
        if not _same_cell(x, y, tol, abs_tol)
    ]


def _snapshot_moves(expected: Path, actual: Path, label: str, tol: float) -> list[str]:
    with open(expected, "rb") as fh:
        old = read_snapshot(fh)
    with open(actual, "rb") as fh:
        new = read_snapshot(fh)
    if old.epoch != new.epoch or [(l.name, l.values.shape) for l in old.layers] != [
        (l.name, l.values.shape) for l in new.layers
    ]:
        return [f"{label}: epoch, layer names or shapes changed"]
    moves = []
    for a, b in zip(old.layers, new.layers):
        err = float(np.max(np.abs(a.values - b.values), initial=0.0))
        scale = float(np.max(np.abs(a.values), initial=0.0))
        if not err <= tol * scale:
            moves.append(f"{label} {a.name}: max |change| {err:.3g} of max |value| {scale:.3g}")
    return moves


def _outputs(directory: Path) -> list[str]:
    """The files of a case's outputs, tables before snapshots."""
    return sorted((p.name for p in directory.iterdir()), key=lambda name: (name.endswith(".wsnp"), name))


def moved_cells(case: str, out_dir: Path) -> list[str]:
    """Cells of out_dir's outputs that differ from the committed golden of case."""
    golden = GOLDEN_DIR / case
    names = _outputs(golden)
    if _outputs(out_dir) != names:
        return [f"{case}: output files {_outputs(out_dir)}, golden {names}"]
    tol, abs_tol = (RMT_TOL, RMT_TOL) if case == "rmt" else (REL_TOL, 0.0)
    moves = []
    for name in names:
        files = (golden / name, out_dir / name, f"{case}/{name}")
        moves += _table_moves(*files, tol, abs_tol) if name.endswith(".csv") else _snapshot_moves(*files, tol)
    return moves


def regenerate() -> int:
    """Rerun every case; write the outputs of a new case and of one whose cells moved, and leave the rest untouched."""
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            out_dir = Path(tmp) / case
            run(case, out_dir)
            golden = GOLDEN_DIR / case
            if golden.is_dir():
                moves = moved_cells(case, out_dir)
                print("\n".join(moves) if moves else f"{case}: no cell moved")
                if not moves:
                    continue
                shutil.rmtree(golden)
            else:
                print(f"{case}: new golden")
            shutil.copytree(out_dir, golden)
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
