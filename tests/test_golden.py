"""Golden bytes: synthesized measurement files and replayed result files.

Each digest is the sha256 of bytes gridse wrote for a fixed seed: the
compact JSON of ``measurements_to_dict(synthesize(...))`` over the
benchmark plans of ``conftest.py``, and the ``result.json`` of an
``estimate --manifest`` replay.  They were recorded once and committed,
so a refactor that changes any bit of a synthesized value, a variance,
a covariance, an estimate or a residual fails here, not only a rerun
within one version.

The numbers come from numpy's elementary functions, from LAPACK's
banded Cholesky (dpbtrf/dpbtrs, on the gain in lower band storage)
behind the normal method and from numpy's QR behind the orthogonal one,
with LAPACK's dense triangular and Cholesky solves (dtrtrs,
dpotrf/dpotrs) where it takes the current magnitudes' second-order
term, so the digests hold for one numerical stack and for that storage:
upper band storage factors the same gain in another order of
operations, and changes the normal replays' last bits.  They were
recorded with Python 3.11, numpy 2.4 and scipy 1.17 (OpenBLAS 0.3.31)
on x86-64 Linux.  The gain of every replay here fits the band, so
SuperLU, which the normal method keeps for wide-profile gains, does not
enter them.
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
        "cde44b4f6d168cd9a7bb1214db310997a8eda3daa4ba35096a005a5ecdb020be",
    "net14/simultaneous_polar":
        "5a849a1945ee3d9fa5de1fc4c552673519e6b6d5ff4522f5fc37fca44dbd2be5",
    "net14/simultaneous_rect":
        "779e2628333ae86b2a52ccdb23ee3ec81e6cb9180fc6c3dd364bf9027c12c54d",
    "net14/linear_rect":
        "d54818eb42d59bf3c89e736830fc102c5fc0028335cd081fee6407abb82e8508",
    "net14/dc":
        "bb79f12090d1b7903d377d1b4e5eca5e95944039b85fa80e81dd623267829df2",
    "lattice4/conventional":
        "9240a83515b9b37d0d96d864b7371c240cdb86d0354cb24770d3e3ffe073aa1d",
    "lattice4/simultaneous_polar":
        "8fa90cbdca2f0558c0c461a45bdf268a5b7dfccfab6e4210dc7e4e16bbc6b94b",
    "lattice4/simultaneous_rect":
        "862130fcf35037260a07c9e5d434182923283cf7916b4401e3fde67e3fa81ad4",
    "lattice4/linear_rect":
        "0bb4b19ad537fecf2636ee36662ef65f47607e667c98836a6522329e4861ec6e",
    "lattice4/dc":
        "edde789f522c20ef9d86271dfc5260addeab404db3ed319f7162114d11df36d6",
}

REPLAY = {
    "conventional/normal":
        "0c9c457a590116d213b8467107f8b4271f0bd3ea9d77f9d46fa1fd7a6d353959",
    "conventional/orthogonal":
        "d67d761c33d23da1d51e7e7af4bed2822d5443e2579105d8eaca2cdd4c7d57a6",
    "simultaneous_polar/normal":
        "eaa86568ada996474422b48a9744e154d7d0312922fd65e6d260e1fe842e63b0",
    "simultaneous_polar/orthogonal":
        "fdebc9e087a823ac6ac148f81d68c2a7a7f880115fa357189b0da9878d70d089",
    "simultaneous_rect/normal":
        "4f3a235d1d5e34868731d06eb1570c25f2f94adb69c289a251623ddbe269d21b",
    "simultaneous_rect/orthogonal":
        "7ea41fea464691126810e7c5e11577b1ac22f3f5ab74b578d2a799289c777f80",
    "linear_rect/normal":
        "34138342033e9522d5b3afc4dcc036b2168bf0cb4ee81aed920a2c537d0ea99c",
    "linear_rect/orthogonal":
        "ed7acb25b68b3b068cb9e41790ba6d33860c59bfda8e1fae079583fc35366c89",
    "dc/normal":
        "cb656a17ed18b4fc65bb216caf6dd89444d334e386bdc9058bf44ad42f9dbcba",
    "dc/orthogonal":
        "5d432b74bd521c70d55767e872bdffc58dcabebb34a4274d8cce18f7bcca3dee",
}


def test_synthesized_measurement_bytes():
    assert synthesis_digests() == SYNTHESIS


def test_replayed_result_bytes(tmp_path, capsys):
    assert replay_digests(tmp_path) == REPLAY
