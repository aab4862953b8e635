"""The traced benchmark wraps names looked up on tempbal modules; each must still exist and be called."""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import numpy as np

from tempbal.cli import main
from tempbal.weight_store import LayerTensor, WeightSnapshot, save_snapshot

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_call_sites_resolve():
    spans = load_spans()
    for module_name, attr, _span in spans.CALL_SITES:
        module = importlib.import_module(f"tempbal.{module_name}")
        assert callable(getattr(module, attr, None)), f"tempbal.{module_name}.{attr}"


def test_traced_call_sites_fire(tmp_path):
    """A refactor that stops calling a wrapped name would hide its cost from the traced bench."""
    rng = np.random.default_rng(3)
    snapshot = tmp_path / "tiny.wsnp"
    save_snapshot(
        WeightSnapshot(epoch=0, layers=(LayerTensor("fc", (8, 12), rng.normal(size=96)),)), str(snapshot)
    )
    config = tmp_path / "run.cfg"
    config.write_text(
        "total_epochs = 2\nsamples = 60\ndim = 6\nhidden = 8\nlambda_sr = 0.001\n"
        "update_interval_iters = 1\ntiming = off\n"
    )
    argvs = (
        ["analyze", str(snapshot), "--policy", "ks", "--out-dir", str(tmp_path / "analyze")],
        ["train", "--config", str(config), "--out-dir", str(tmp_path / "train")],
        ["rmt", "--q", "16", "--s", "1.0"],
    )
    spans = load_spans()
    # several sites share a span name (esd.compute_esd is called from htsr and
    # rmt_lab); name each span after its site so every site must fire itself
    spans.CALL_SITES = tuple((module, attr, f"{module}.{attr}") for module, attr, _name in spans.CALL_SITES)
    tracer = spans.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            assert tracer.call(0, lambda: main(argv)) == 0
    fired = {span[0] for span in tracer.spans[0]}
    missing = {name for _module, _attr, name in spans.CALL_SITES} - fired
    assert not missing, f"call sites never called: {sorted(missing)}"
