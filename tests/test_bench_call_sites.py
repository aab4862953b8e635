"""The benchmark's hooks into tempbal: traced call sites must exist and fire, and its zoo references must hold."""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import numpy as np

from tempbal.cli import main
from tempbal.htsr import LambdaMinPolicy, analyze_snapshot
from tempbal.weight_store import LayerTensor, WeightSnapshot, save_snapshot

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_perfbench("spans")


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


def test_zoo_references_hold():
    """analyze_zoo's output checks, run in-process so that tier-1 fails on what would fail the bench."""
    workloads = load_perfbench("workloads")
    layers = tuple(LayerTensor(name, dims, values.ravel()) for name, dims, values in workloads.zoo_layers(201))
    snapshot = WeightSnapshot(epoch=0, layers=layers)
    for variant in workloads.POLICIES:
        for row in analyze_snapshot(snapshot, LambdaMinPolicy(variant=variant)):
            if row.name == workloads.LOW_RANK:
                if variant == "median":
                    # the median threshold of the rank-32 layer lies in its null space
                    assert row.metrics is None, row.metrics
                continue
            k_ref, alpha_ref = workloads.ZOO_REFERENCE[(row.name, variant)]
            assert row.metrics is not None, (row.name, variant, row.error)
            assert row.metrics.k == k_ref, (row.name, variant)
            alpha = row.metrics.alpha_hill
            assert abs(alpha - alpha_ref) <= workloads.ALPHA_REL_TOL * alpha_ref, (row.name, variant, alpha)
