"""Benchmark workloads: inputs made from the seed, the op each one runs, and its output checks.

An op is one or more calls of ``tempbal.cli.main(argv)`` in the benchmark
process: one for the train and rmt workloads, one per selection policy for
analyze_zoo. The program sees only what is generated here from the workload seed: the
config file's ``seed``, the ``.wsnp`` values and ``rmt --seed``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

POLICIES = ("median", "ks", "fixfinger")


class CheckFailed(Exception):
    """An op exited 0 but its outputs are wrong."""


def derive_seed(seed: int, stream: int) -> int:
    """A 31-bit seed for one input stream of a workload."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0] & 0x7FFFFFFF)


def _read_rows(path: Path) -> list[dict[str, str]]:
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from None


class _Workload:
    """One workload: ``prepare()`` writes the inputs, ``op(i)`` gives op i as (argv, check) calls."""

    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.observed: dict[str, str] = {}  # outputs reported with the result but never gated
        self._digests: dict[str, str] = {}

    def _same_as_before(self, key: str, *paths: Path) -> None:
        """Outputs of ops that share ``key`` must be byte-identical across the run."""
        h = hashlib.sha256()
        for path in paths:
            try:
                h.update(path.read_bytes())
            except OSError as exc:
                raise CheckFailed(f"cannot read {path.name}: {exc}") from None
        first = self._digests.setdefault(key, h.hexdigest())
        if first != h.hexdigest():
            raise CheckFailed(f"{key}: outputs differ from the first op of the run")


# ---------------------------------------------------------------------------
# train_refresh


class TrainRefresh(_Workload):
    name = "train_refresh"

    ETA0, S1, S2, TOTAL_EPOCHS = 0.1, 0.5, 1.5, 4
    # 10 well-separated classes: every seed tried reaches >= 0.99 after 4 epochs
    ACCURACY_FLOOR = 0.95

    def prepare(self) -> None:
        config = {
            "dim": 128,
            "hidden": "256,256,128",
            "classes": 10,
            "samples": 2560,
            "separation": 6.0,
            "eta0": self.ETA0,
            "s1": self.S1,
            "s2": self.S2,
            "total_epochs": self.TOTAL_EPOCHS,
            "update_interval_iters": 5,
            "policy": "median",
            "lambda_sr": 0.0,
            "timing": "off",
            "seed": derive_seed(self.seed, 1),
        }
        self.config = self.work / "run.cfg"
        self.config.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
        self.out = self.work / "train_out"

    def op(self, i: int):
        return [(["train", "--config", str(self.config), "--out-dir", str(self.out)], self._check)]

    def _check(self) -> None:
        telemetry, final = self.out / "telemetry.csv", self.out / "final.wsnp"
        rows = _read_rows(telemetry)
        epochs = [r for r in rows if r["layer"] == "_epoch_"]
        if len(epochs) != self.TOTAL_EPOCHS:
            raise CheckFailed(f"telemetry has {len(epochs)} epoch rows, expected {self.TOTAL_EPOCHS}")
        for row in rows:
            if row["layer"] == "_epoch_":
                continue
            t = int(row["epoch"])
            eta_t = self.ETA0 / 2.0 * (1.0 + math.cos(t * math.pi / self.TOTAL_EPOCHS))
            lr = float(row["lr"])
            lo, hi = self.S1 * eta_t, self.S2 * eta_t
            if not lo * (1 - 1e-12) <= lr <= hi * (1 + 1e-12):
                raise CheckFailed(f"epoch {t} layer {row['layer']}: lr {lr!r} outside [{lo!r}, {hi!r}]")
        accuracy = float(epochs[-1]["eval_acc"])
        if not accuracy >= self.ACCURACY_FLOOR:
            raise CheckFailed(f"final eval accuracy {accuracy} below {self.ACCURACY_FLOOR}")
        self._same_as_before("train", telemetry, final)


# ---------------------------------------------------------------------------
# analyze_zoo

# (name, stored dims, decay s, lambda_1, rank or None for full rank).
# Each layer is U diag(sqrt(lambda)) V^T with orthonormal U, V drawn from the
# seed and the prescribed spectrum lambda_k = lambda_1 * (k^-s + (r/4)^-s):
# a power-law tail over a flat bulk, so the three policies pick different k,
# and k and alpha do not depend on the seed beyond roundoff.
ZOO = (
    ("fc_128x256", (128, 256), 0.8, 2.0, None),
    ("fc_512x1024", (512, 1024), 1.0, 3.0, None),
    ("fc_1024x1024", (1024, 1024), 1.2, 4.0, None),
    ("fc_4096x1024", (4096, 1024), 0.6, 8.0, None),  # transposed on orient
    ("conv_64x32x3x3", (64, 32, 3, 3), 1.5, 1.5, None),
    ("lowrank_512x768", (512, 768), 1.0, 2.0, 32),
)
LOW_RANK = "lowrank_512x768"
ZOO_TIMEOUT_S = 60

# (layer, policy) -> (k, alpha_hill) from the prescribed spectra, observed
# identical to 1e-14 across seeds. alpha may move by ALPHA_REL_TOL, which
# admits a cheaper spectrum route that keeps 6 digits.
ALPHA_REL_TOL = 1e-6
ZOO_REFERENCE = {
    ("fc_128x256", "median"): (64, 3.4369228380060814),
    ("fc_512x1024", "median"): (256, 2.8576079084621524),
    ("fc_1024x1024", "median"): (512, 2.5261607544169262),
    ("fc_4096x1024", "median"): (512, 4.134331761211089),
    ("conv_64x32x3x3", "median"): (32, 2.351123829078216),
    ("fc_128x256", "ks"): (17, 2.849302405687128),
    ("fc_512x1024", "ks"): (37, 2.206608235406401),
    ("fc_1024x1024", "ks"): (61, 1.933041461096514),
    ("fc_4096x1024", "ks"): (41, 3.115808157625344),
    ("conv_64x32x3x3", "ks"): (12, 1.9616433987049589),
    ("fc_128x256", "fixfinger"): (127, 4.08781147118842),
    ("fc_512x1024", "fixfinger"): (511, 3.520047106533867),
    ("fc_1024x1024", "fixfinger"): (1023, 3.182449514361218),
    ("fc_4096x1024", "fixfinger"): (1023, 4.8069386229075945),
    ("conv_64x32x3x3", "fixfinger"): (63, 3.0100366314303857),
}


def _orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """rows x cols with orthonormal columns; tall multiples reuse one square QR."""
    if rows > cols and rows % cols == 0:
        q = _orthonormal(rng, cols, cols)
        blocks = [q[rng.permutation(cols)] for _ in range(rows // cols)]
        return np.vstack(blocks) / math.sqrt(rows // cols)
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q


def zoo_layers(seed: int):
    """(name, dims, float64 values) of each zoo layer, in order."""
    rng = np.random.default_rng(seed)
    for name, dims, decay, lambda1, rank in ZOO:
        rows, cols = dims[0], math.prod(dims[1:])
        n, m = min(rows, cols), max(rows, cols)
        r = rank or n
        k = np.arange(1, r + 1, dtype=np.float64)
        lam = lambda1 * (k ** -decay + (r / 4) ** -decay)
        w = (_orthonormal(rng, n, r) * np.sqrt(lam)) @ _orthonormal(rng, m, r).T
        yield name, dims, (w.T if rows > cols else w)


def write_zoo(path: Path, seed: int) -> None:
    """Write the zoo as a .wsnp file (format version 1), independently of tempbal's writer."""
    layers = list(zoo_layers(seed))
    with open(path, "wb") as fh:
        fh.write(b"WSNP" + struct.pack("<III", 1, 0, len(layers)))
        for name, dims, values in layers:
            raw = name.encode()
            fh.write(struct.pack("<I", len(raw)) + raw)
            fh.write(struct.pack(f"<I{len(dims)}Q", len(dims), *dims))
            fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


class AnalyzeZoo(_Workload):
    name = "analyze_zoo"

    def prepare(self) -> None:
        # written by a child process, so its arrays stay out of this process's peak RSS
        self.snapshot = self.work / "zoo.wsnp"
        cmd = [sys.executable, __file__, str(self.snapshot), str(derive_seed(self.seed, 2))]
        subprocess.run(cmd, check=True, timeout=ZOO_TIMEOUT_S)

    def op(self, i: int):
        return [self._analyze(policy) for policy in POLICIES]

    def _analyze(self, policy: str):
        out = self.work / f"analyze_{policy}"
        argv = ["analyze", str(self.snapshot), "--policy", policy, "--out-dir", str(out)]
        return argv, lambda: self._check(policy, out)

    def _check(self, policy: str, out: Path) -> None:
        metrics = out / "metrics.csv"
        rows = {row["layer"]: row for row in _read_rows(metrics)}
        if sorted(rows) != sorted(name for name, *_ in ZOO):
            raise CheckFailed(f"{policy}: metrics.csv layers {sorted(rows)}")
        for name, *_ in ZOO:
            row = rows[name]
            if name == LOW_RANK:
                # a known defect: the median threshold lands in the null space, so this
                # alpha rests on roundoff; a clamp may turn the row degenerate
                if not row["status"].startswith(("ok", "degenerate")):
                    raise CheckFailed(f"{policy}: {name} status {row['status']!r}")
                key = f"{name} {policy} lambda_min, alpha_hill"
                self.observed.setdefault(key, f"{row['lambda_min']}, {row['alpha_hill']}")
                continue
            k_ref, alpha_ref = ZOO_REFERENCE[(name, policy)]
            if not row["status"].startswith("ok"):
                raise CheckFailed(f"{policy}: {name} status {row['status']!r}")
            k, alpha = int(row["k"]), float(row["alpha_hill"])
            if k != k_ref or not abs(alpha - alpha_ref) <= ALPHA_REL_TOL * alpha_ref:
                raise CheckFailed(f"{policy}: {name} k={k} alpha={alpha!r}, expected {k_ref}, {alpha_ref!r}")
        self._same_as_before(policy, metrics)


# ---------------------------------------------------------------------------
# rmt_sweep


class RmtSweep(_Workload):
    name = "rmt_sweep"

    def prepare(self) -> None:
        self.table = self.work / "rmt.csv"
        self.rmt_seed = derive_seed(self.seed, 3)

    def op(self, i: int):
        argv = ["rmt", "--q", "1024", "--s", "0.5,1.5,3.0", "--seed", str(self.rmt_seed), "--out", str(self.table)]
        return [(argv, self._check)]

    def _check(self) -> None:
        # exit 0 already means every cell met the built-in 0.15 rel-err gate
        rows = _read_rows(self.table)
        if [(r["Q"], float(r["s"])) for r in rows] != [("1024", 0.5), ("1024", 1.5), ("1024", 3.0)]:
            raise CheckFailed(f"rmt table has cells {[(r['Q'], r['s']) for r in rows]}")
        self._same_as_before("rmt", self.table)


WORKLOADS = {cls.name: cls for cls in (TrainRefresh, AnalyzeZoo, RmtSweep)}


if __name__ == "__main__":  # python3 workloads.py <out.wsnp> <seed>: write the analyze_zoo snapshot
    write_zoo(Path(sys.argv[1]), int(sys.argv[2]))
