"""Every golden case's outputs match the committed goldens cell by cell (see goldens.py)."""

import shutil

import pytest

import goldens
from goldens import TRAIN_CASES, moved_cells, run
from tempbal.htsr import POLICY_VARIANTS
from tempbal.weight_store import LayerTensor, WeightSnapshot, read_snapshot, save_snapshot


@pytest.mark.parametrize("case", TRAIN_CASES)
def test_train_outputs_match_the_golden(tmp_path, case):
    run(case, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["final.wsnp", "telemetry.csv"]
    assert moved_cells(case, tmp_path) == []


@pytest.mark.parametrize("policy", POLICY_VARIANTS)
def test_analyze_outputs_match_the_golden(tmp_path, policy):
    run(f"analyze_{policy}", tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["esd.csv", "metrics.csv"]
    assert moved_cells(f"analyze_{policy}", tmp_path) == []


def test_analyze_of_a_ragged_tall_layer_matches_the_golden(tmp_path):
    run("analyze_tall", tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["esd.csv", "metrics.csv"]
    assert moved_cells("analyze_tall", tmp_path) == []


def test_rmt_outputs_match_the_golden(tmp_path):
    run("rmt", tmp_path)
    assert moved_cells("rmt", tmp_path) == []


def test_regenerate_leaves_the_files_of_an_unmoved_case_untouched(tmp_path, monkeypatch, capsys):
    golden = tmp_path / "golden"
    shutil.copytree(goldens.GOLDEN_DIR, golden)

    def stamps():
        return {path: (path.stat().st_ino, path.stat().st_mtime_ns) for path in golden.rglob("*")}

    before = stamps()
    monkeypatch.setattr(goldens, "GOLDEN_DIR", golden)
    assert goldens.regenerate() == 0
    assert capsys.readouterr().out.splitlines() == [f"{case}: no cell moved" for case in goldens.CASES]
    assert stamps() == before


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


@pytest.mark.parametrize("factor, moved", [(1 + 1e-11, False), (1 + 1e-9, True)])
def test_an_rmt_alpha_moved_past_its_tolerance_is_named(tmp_path, factor, moved):
    run("rmt", tmp_path)
    table = tmp_path / "table.csv"
    rows = table.read_text().splitlines()
    cells = rows[3].split(",")  # Q = 32, s = 1.5
    cells[2] = repr(float(cells[2]) * factor)  # its alpha_hill
    rows[3] = ",".join(cells)
    table.write_text("\n".join(rows) + "\n")
    moves = moved_cells("rmt", tmp_path)
    assert [m.split(":")[0] for m in moves] == (["rmt/table.csv row 3 (32,1.5) alpha_hill"] if moved else [])
