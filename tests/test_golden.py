"""Golden bytes: synthesized measurement files and replayed result files.

Each digest is the sha256 of bytes gridse wrote for a fixed seed: the
compact JSON of ``measurements_to_dict(synthesize(...))`` over the
benchmark plans of ``conftest.py``, and the ``result.json`` of an
``estimate --manifest`` replay.  They were recorded once and committed,
so a refactor that changes any bit of a synthesized value, a variance,
a covariance, an estimate or a residual fails here, not only a rerun
within one version.

The numbers come from numpy's elementary functions, from LAPACK's
banded Cholesky (dpbtrf/dpbtrs) behind the normal method and from
numpy's QR behind the orthogonal one, with LAPACK's dense triangular
and Cholesky solves (dtrtrs, dpotrf/dpotrs) where it takes the current
magnitudes' second-order term, so the digests hold for one
numerical stack: they were recorded with Python 3.11, numpy 2.4 and
scipy 1.17 (OpenBLAS 0.3.30) on x86-64 Linux.  The gain of every
replay here fits the band, so SuperLU, which the normal method keeps
for wide-profile gains, does not enter them.
"""

import hashlib
import json

import numpy as np

from gridse import (
    Branch,
    Bus,
    NetworkModel,
    load_network,
    measurements_to_dict,
    sample_true_state,
    synthesize,
)
from gridse.cli import main

from conftest import (
    DC_NOISE,
    FIXTURES,
    LEGACY_NOISE,
    PMU_NOISE,
    dc_plan,
    legacy_plan,
    linear_rect_plan,
    make_scenario,
    simultaneous_polar_plan,
    simultaneous_rect_plan,
)

NET14 = FIXTURES / "net14.json"
V_RANGE = (0.97, 1.03)
THETA_RANGE = (-0.05, 0.05)
SEED = 2024

# formulation -> (plan builder, noise stddevs), as in the benchmark
PLANS = {
    "conventional": (legacy_plan, LEGACY_NOISE),
    "simultaneous_polar": (simultaneous_polar_plan, {**LEGACY_NOISE, **PMU_NOISE}),
    "simultaneous_rect": (simultaneous_rect_plan, {**LEGACY_NOISE, **PMU_NOISE}),
    "linear_rect": (linear_rect_plan, PMU_NOISE),
    "dc": (dc_plan, DC_NOISE),
}


def small_lattice(k=4):
    """A k x k lattice with seeded branch parameters and line charging."""
    rng = np.random.default_rng(17)
    ends = [(r * k + c + 1, r * k + c + 2) for r in range(k) for c in range(k - 1)]
    ends += [(r * k + c + 1, (r + 1) * k + c + 1) for r in range(k - 1) for c in range(k)]
    ends.append((2, k + 1))
    branches = [Branch(f, t, float(rng.uniform(0.005, 0.05)), float(rng.uniform(0.05, 0.25)),
                       bs_from=float(rng.uniform(0.0, 0.03)), bs_to=float(rng.uniform(0.0, 0.03)))
                for f, t in ends]
    buses = [Bus(i, shunt_b=0.1 if i % 7 == 0 else 0.0, is_slack=(i == 1))
             for i in range(1, k * k + 1)]
    return NetworkModel(buses, branches)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def synthesized(net, formulation):
    plan, noise = PLANS[formulation]
    spec = make_scenario(net, plan(net), noise=noise, seed=SEED,
                         v_range=V_RANGE, t_range=THETA_RANGE)
    return synthesize(spec, sample_true_state(spec))


def synthesis_digests():
    nets = {"net14": load_network(NET14), "lattice4": small_lattice()}
    return {f"{name}/{formulation}": sha(json.dumps(measurements_to_dict(
        synthesized(net, formulation))).encode())
        for name, net in nets.items() for formulation in PLANS}


def replay_digests(tmp_path):
    net = load_network(NET14)
    digests = {}
    for formulation in PLANS:
        meas = tmp_path / f"{formulation}.json"
        meas.write_text(json.dumps(measurements_to_dict(synthesized(net, formulation))))
        for method in ("normal", "orthogonal"):
            first = tmp_path / f"{formulation}-{method}"
            again = tmp_path / f"{formulation}-{method}-replay"
            assert main(["estimate", "--net", str(NET14), "--measurements", str(meas),
                         "--formulation", formulation, "--linear-method", method,
                         "--out", str(first), "--json"]) == 0
            assert main(["estimate", "--manifest", str(first / "manifest.json"),
                         "--out", str(again), "--json"]) == 0
            data = (again / "result.json").read_bytes()
            assert data == (first / "result.json").read_bytes()
            digests[f"{formulation}/{method}"] = sha(data)
    return digests


SYNTHESIS = {
    "net14/conventional":
        "01a3f1bc19526ac88ea7b8927e2c2734b5e74a8057a2f1dea05aec9c2f796dce",
    "net14/simultaneous_polar":
        "553a3921cc7c86793a2336864d656e81dd904b28836a89805dd8180062fb3951",
    "net14/simultaneous_rect":
        "0966a0ca3cb79f6bddcb74e73653c17e1d958936189fc7846de2dc3f937e20da",
    "net14/linear_rect":
        "9168f19960a6a717a704ca49f7bcb6817264c1f8028f8d547c34ee92457166a4",
    "net14/dc":
        "bb79f12090d1b7903d377d1b4e5eca5e95944039b85fa80e81dd623267829df2",
    "lattice4/conventional":
        "6c5bc6ae28d204ce9a43e7d17135db5e2841bd6160becf5a68ae46b7c66a4515",
    "lattice4/simultaneous_polar":
        "991df411f77ec9e6d5417925743b47f70d70875023a0c098b23a050e21df083c",
    "lattice4/simultaneous_rect":
        "b731331843343994c09122d81b50316835fbde3b995e641eeaa1d85b0cde8306",
    "lattice4/linear_rect":
        "69686158d84773061e880514d8b8756d032c2fdb7266c000f80e34ac7578b61f",
    "lattice4/dc":
        "edde789f522c20ef9d86271dfc5260addeab404db3ed319f7162114d11df36d6",
}

REPLAY = {
    "conventional/normal":
        "ae83d067d49269294d6c44e0b43ff0beff3f0a1dccc7088304c0bf290e8c352a",
    "conventional/orthogonal":
        "affd7ce0811576a407dd37d8c16b68f3c3d088ec7d83b7ad52781a02f1bef321",
    "simultaneous_polar/normal":
        "9d6cb446b293271e5f707d9adda33e64fd7d8e97491b4adc133c25426a0e1522",
    "simultaneous_polar/orthogonal":
        "6649af18ba74e9665528b4baebe9eb5111f6f1568557419a7c79434c332a816b",
    "simultaneous_rect/normal":
        "8135d70dbc3a522906c5072c520004e81f26303a640a40b7cb2fa00b0398cd6b",
    "simultaneous_rect/orthogonal":
        "ddf7b5ec2eac06e9a70878c7da9b746a1f76c1372ec3848a2257e3115a73e865",
    "linear_rect/normal":
        "664b485e197a0862556c7cfc22f79ac64424c3c186860a7c6ecf6d00ea2349d3",
    "linear_rect/orthogonal":
        "e10e9ad1c77dd58bfefc638187ec357afef0954abc135603ac8ad36002f12062",
    "dc/normal":
        "a0bc07031e7d7c14ae46a2641a9ff3573faf8681b3a38d3f27b965697df6e104",
    "dc/orthogonal":
        "5d432b74bd521c70d55767e872bdffc58dcabebb34a4274d8cce18f7bcca3dee",
}


def test_synthesized_measurement_bytes():
    assert synthesis_digests() == SYNTHESIS


def test_replayed_result_bytes(tmp_path, capsys):
    assert replay_digests(tmp_path) == REPLAY
