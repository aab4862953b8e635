"""The benchmark's hooks into tempbal: traced call sites must exist and fire, and its zoo references must hold."""

import contextlib
import filecmp
import importlib
import importlib.util
import io
from pathlib import Path

import numpy as np

from tempbal.cli import main
from tempbal.htsr import LambdaMinPolicy, analyze_snapshot
from tempbal.weight_store import LayerTensor, WeightSnapshot, load_snapshot, save_snapshot

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


def run_traced(tmp_path, spans):
    """One op of analyze, train and rmt under a tracer over spans' call sites; returns the tracer."""
    rng = np.random.default_rng(3)
    layers = (LayerTensor("fc", rng.normal(size=(8, 12))), LayerTensor("dead", np.zeros((4, 6))))
    snapshot = tmp_path / "tiny.wsnp"
    save_snapshot(WeightSnapshot(epoch=0, layers=layers), str(snapshot))
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
    tracer = spans.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            assert tracer.call(0, lambda: main(argv)) == 0
    return tracer


def test_traced_call_sites_fire(tmp_path):
    """A refactor that stops calling a wrapped name would hide its cost from the traced bench."""
    spans = load_spans()
    # several sites share a span name (esd.compute_esd is called from htsr and
    # rmt_lab); name each span after its site so every site must fire itself
    spans.CALL_SITES = tuple((module, attr, f"{module}.{attr}") for module, attr, _name in spans.CALL_SITES)
    tracer = run_traced(tmp_path, spans)
    fired = {span[0] for span in tracer.spans[0]}
    missing = {name for _module, _attr, name in spans.CALL_SITES} - fired
    assert not missing, f"call sites never called: {sorted(missing)}"


def test_bench_counters_are_recorded(tmp_path):
    """Under the real span names every bench counter reads tempbal's results; a renamed attribute fails here."""
    counters = run_traced(tmp_path, load_spans()).counters[0]
    names = {
        "scheduler.fallback_layers",
        "htsr.degenerate_layers",
        "esd.compute_esd.mb",
        "weight_store.load_snapshot.mb",
        "rmt_lab.cells",
    }
    assert not names - set(counters), f"counters never recorded: {sorted(names - set(counters))}"
    assert counters["weight_store.load_snapshot.mb"] == (96 + 24) * 8 / 2**20
    # train refreshes twice (one batch per epoch), and its 2 x 8 output layer has
    # too few eigenvalues to fit: it falls back at each refresh
    assert counters["scheduler.fallback_layers"] == 2
    assert counters["htsr.degenerate_layers"] == 1 + 2  # the zero layer, then the two fallbacks
    assert counters["esd.compute_esd.mb"] > 0
    assert counters["rmt_lab.cells"] == 1


# rank 32 of 512: under median the threshold lies in the null space; ks and
# fixfinger fit the 32 nonzero eigenvalues, with (k, alpha_hill) equal to 1e-14
# over seeds 201, 7 and 12345
LOW_RANK_REFERENCE = {"ks": (8, 2.828678362647), "fixfinger": (31, 3.813709627821)}


def test_zoo_references_hold():
    """analyze_zoo's output checks, run in-process so that tier-1 fails on what would fail the bench."""
    workloads = load_perfbench("workloads")
    layers = tuple(LayerTensor(name, values.reshape(dims)) for name, dims, values in workloads.zoo_layers(201))
    check_zoo_references(workloads, WeightSnapshot(epoch=0, layers=layers))


def test_zoo_references_hold_for_the_zoo_file(tmp_path):
    """As the bench reads it: from a file, where the tall layer's Gram is summed over blocks of its rows."""
    workloads = load_perfbench("workloads")
    workloads.write_zoo(tmp_path / "zoo.wsnp", 201)
    check_zoo_references(workloads, load_snapshot(str(tmp_path / "zoo.wsnp")))


def test_saving_the_loaded_zoo_gives_the_bench_writers_bytes(tmp_path):
    """write_zoo is an independent .wsnp writer: tempbal's must give its bytes, with no piece dropped or reordered."""
    workloads = load_perfbench("workloads")
    zoo, copy = tmp_path / "zoo.wsnp", tmp_path / "copy.wsnp"
    workloads.write_zoo(zoo, 201)
    assert save_snapshot(load_snapshot(str(zoo)), str(copy)) == zoo.stat().st_size
    assert filecmp.cmp(zoo, copy, shallow=False)


def check_zoo_references(workloads, snapshot):
    for variant in workloads.POLICIES:
        for row in analyze_snapshot(snapshot, LambdaMinPolicy(variant=variant)):
            if row.name == workloads.LOW_RANK and variant == "median":
                assert row.metrics is None, row.metrics
                continue
            if row.name == workloads.LOW_RANK:
                k_ref, alpha_ref = LOW_RANK_REFERENCE[variant]
            else:
                k_ref, alpha_ref = workloads.ZOO_REFERENCE[(row.name, variant)]
            assert row.metrics is not None, (row.name, variant, row.error)
            assert row.metrics.k == k_ref, (row.name, variant)
            alpha = row.metrics.alpha_hill
            assert abs(alpha - alpha_ref) <= workloads.ALPHA_REL_TOL * alpha_ref, (row.name, variant, alpha)
