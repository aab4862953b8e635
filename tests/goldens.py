"""Golden outputs of a tiny `tempbal train` run under each assignment, and their one writer.

    PYTHONPATH=src python tests/goldens.py

reruns every golden config, prints each cell that moved from the committed
files under tests/golden/, and writes the new outputs in their place. A change
that moves a golden names the cells and the reason in CHANGES.md.

Outputs are compared as parsed cells, not bytes, because BLAS thread counts
move the last bits of a float. Integer and text cells must match exactly;
float cells and each snapshot layer match to REL_TOL relative.
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

import numpy as np

from tempbal.cli import main
from tempbal.scheduler import ASSIGNMENTS
from tempbal.weight_store import read_snapshot

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
OUTPUTS = ("telemetry.csv", "final.wsnp")
REL_TOL = 1e-13
INTEGER = re.compile(r"[+-]?\d+")

# five dense layers, three of them in the metric map; 3 iterations per epoch, refreshed every 2
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
# lars diverges at the default eta0
OVERRIDES = {"lars": {"eta0": "0.0005"}}


def config_text(assignment: str) -> str:
    values = {**CONFIG, "assignment": assignment, **OVERRIDES.get(assignment, {})}
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def run(assignment: str, out_dir: Path) -> None:
    """Train the golden config under one assignment, writing its outputs to out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = out_dir / "run.cfg"
    cfg.write_text(config_text(assignment), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["train", "--config", str(cfg), "--out-dir", str(out_dir)])
    cfg.unlink()
    if code:
        raise RuntimeError(f"golden run {assignment} exited {code}")


def _same_cell(expected: str, actual: str) -> bool:
    if expected == actual:
        return True
    if INTEGER.fullmatch(expected) or INTEGER.fullmatch(actual):
        return False  # integers match exactly; write_table gives every float a '.', an 'e', inf or nan
    try:
        a, b = float(expected), float(actual)
    except ValueError:
        return False  # text matches exactly
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _telemetry_moves(expected: Path, actual: Path, label: str) -> list[str]:
    with open(expected, newline="") as fh:
        old = list(csv.reader(fh))
    with open(actual, newline="") as fh:
        new = list(csv.reader(fh))
    if old[0] != new[0] or len(old) != len(new) or any(len(a) != len(b) for a, b in zip(old, new)):
        return [f"{label}: table shape or header changed"]
    header = old[0]
    return [
        f"{label} row {row_no} ({a[0]},{a[1]}) {column}: {x} -> {y}"
        for row_no, (a, b) in enumerate(zip(old[1:], new[1:]), start=1)
        for column, x, y in zip(header, a, b)
        if not _same_cell(x, y)
    ]


def _snapshot_moves(expected: Path, actual: Path, label: str) -> list[str]:
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
        if not err <= REL_TOL * scale:
            moves.append(f"{label} {a.name}: max |change| {err:.3g} of max |value| {scale:.3g}")
    return moves


def moved_cells(assignment: str, out_dir: Path) -> list[str]:
    """Cells of out_dir's outputs that differ from the committed golden of assignment."""
    golden = GOLDEN_DIR / assignment
    return _telemetry_moves(golden / "telemetry.csv", out_dir / "telemetry.csv", f"{assignment}/telemetry.csv") + (
        _snapshot_moves(golden / "final.wsnp", out_dir / "final.wsnp", f"{assignment}/final.wsnp")
    )


def regenerate() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for assignment in ASSIGNMENTS:
            out_dir = Path(tmp) / assignment
            run(assignment, out_dir)
            golden = GOLDEN_DIR / assignment
            if all((golden / name).exists() for name in OUTPUTS):
                moves = moved_cells(assignment, out_dir)
                print("\n".join(moves) if moves else f"{assignment}: no cell moved")
            else:
                print(f"{assignment}: new golden")
            golden.mkdir(parents=True, exist_ok=True)
            for name in OUTPUTS:
                shutil.copyfile(out_dir / name, golden / name)
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
