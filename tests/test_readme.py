"""The README runs as written: its python blocks execute, its ini block parses and trains, every `tempbal ...` line of
its sh blocks exits 0, and each CSV header it quotes is the one its writer writes."""

import importlib
import re
import shlex
from pathlib import Path

import numpy as np

from tempbal import cli
from tempbal.train_engine import TELEMETRY_HEADER
from tempbal.weight_store import LayerTensor, WeightSnapshot, save_snapshot

README = Path(__file__).resolve().parents[1] / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.MULTILINE | re.DOTALL)
QUOTED_HEADER = re.compile(r"^# (\S+\.csv): (\S+)$")  # `# results/metrics.csv: layer,n,...` under a command
CODE_NAME = re.compile(r"`(cli|esd|htsr|rmt_lab|scheduler|train_engine|weight_store)\.(?!csv`)(\w+)[`(.]")  # not esd.csv
TEST_NAME = re.compile(r"`(test_\w+\.py)::(test_\w+)`")


def blocks(lang: str) -> list[str]:
    """The bodies of the README's fenced blocks tagged lang ("" for an untagged block)."""
    return [body for tag, body in FENCE.findall(README.read_text(encoding="utf-8")) if tag == lang]


def sh_lines() -> list[str]:
    return [line.strip() for body in blocks("sh") for line in body.splitlines()]


def test_the_readme_python_blocks_run_and_show_layer_wise_rates(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (example,) = blocks("python")
    scope: dict = {}
    exec(compile(example, str(README), "exec"), scope)
    decision, cfg = scope["decision"], scope["cfg"]
    ranked = {rate for rate in decision.per_layer.values() if rate != decision.eta_t}
    assert len(ranked) >= 2, decision.per_layer
    assert all(cfg.s1 * decision.eta_t <= rate <= cfg.s2 * decision.eta_t for rate in ranked)


def test_the_readme_config_and_commands_run_and_quote_the_writers_headers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (config,) = blocks("ini")
    Path("run.cfg").write_text(config, encoding="utf-8")
    assert cli.parse_config("run.cfg")["total_epochs"] == 30
    rng = np.random.default_rng(0)
    layers = (LayerTensor("fc0", rng.normal(size=(32, 64))), LayerTensor("fc1", rng.standard_t(3.0, size=(16, 32))))
    save_snapshot(WeightSnapshot(epoch=0, layers=layers), "model.wsnp")

    commands = [line.split("#", 1)[0] for line in sh_lines() if line.startswith("tempbal ")]
    assert [shlex.split(command)[1] for command in commands] == ["analyze", "train", "rmt"]
    for command in commands:
        assert cli.main(shlex.split(command)[1:]) == 0, command

    quoted = dict(match.groups() for match in map(QUOTED_HEADER.match, sh_lines()) if match)
    assert quoted == {
        "results/metrics.csv": cli.METRICS_HEADER,
        "results/esd.csv": cli.ESD_HEADER,
        "table.csv": Path("table.csv").read_text(encoding="utf-8").splitlines()[0],  # rmt's header
    }
    for path, header in quoted.items():
        assert Path(path).read_text(encoding="utf-8").splitlines()[0] == header, path
    (telemetry,) = blocks("")
    assert telemetry.strip() == TELEMETRY_HEADER
    assert Path("runs/tb/telemetry.csv").read_text(encoding="utf-8").splitlines()[0] == TELEMETRY_HEADER


def test_every_function_and_test_the_readme_names_exists():
    text = README.read_text(encoding="utf-8")
    for module, name in CODE_NAME.findall(text):
        assert hasattr(importlib.import_module(f"tempbal.{module}"), name), f"{module}.{name}"
    named_tests = TEST_NAME.findall(text)
    assert len(named_tests) >= 8  # the map from the paper to the code
    for path, name in named_tests:
        assert f"\ndef {name}(" in (Path(__file__).parent / path).read_text(encoding="utf-8"), f"{path}::{name}"
    for criterion in map(int, re.findall(r"criterion (\d+)", text)):
        assert f"\ndef test_criterion_{criterion}_" in (Path(__file__).parent / "test_acceptance.py").read_text()
