"""Every assignment's `train` outputs match the committed goldens cell by cell (see goldens.py)."""

import pytest

from goldens import OUTPUTS, moved_cells, run
from tempbal.scheduler import ASSIGNMENTS
from tempbal.weight_store import LayerTensor, WeightSnapshot, read_snapshot, save_snapshot


@pytest.mark.parametrize("assignment", ASSIGNMENTS)
def test_train_outputs_match_the_golden(tmp_path, assignment):
    run(assignment, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(OUTPUTS)
    assert moved_cells(assignment, tmp_path) == []


@pytest.mark.parametrize("factor, moved", [(1 + 1e-15, False), (1 + 1e-12, True)])
def test_a_cell_or_layer_moved_past_the_tolerance_is_named(tmp_path, factor, moved):
    run("step", tmp_path)
    telemetry = tmp_path / "telemetry.csv"
    rows = telemetry.read_text().splitlines()
    cells = rows[2].split(",")  # epoch 0, dense1
    cells[4] = repr(float(cells[4]) * factor)  # its lr
    rows[2] = ",".join(cells)
    telemetry.write_text("\n".join(rows) + "\n")
    with open(tmp_path / "final.wsnp", "rb") as fh:
        snap = read_snapshot(fh)
    layers = [LayerTensor(layer.name, layer.values * factor) for layer in snap.layers]
    save_snapshot(WeightSnapshot(epoch=snap.epoch, layers=tuple(layers)), str(tmp_path / "final.wsnp"))

    moves = moved_cells("step", tmp_path)
    if moved:
        assert moves[0].startswith("step/telemetry.csv row 2 (0,dense1) lr: ")
        assert [m.split(":")[0] for m in moves[1:]] == [f"step/final.wsnp {layer.name}" for layer in snap.layers]
    else:
        assert moves == []
