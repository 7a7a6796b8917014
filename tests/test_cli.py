import dataclasses
import json
import logging
import math
import os
import platform
import re
from pathlib import Path

import numpy as np
import pytest
import scipy

from gridse import SolverConfig
from gridse.cli import main

from conftest import FIXTURES, legacy_plan

NET3 = str(FIXTURES / "net3.json")
NET14 = str(FIXTURES / "net14.json")


def write_scenario(tmp_path, noise=None, placements=None, seed=21):
    doc = {
        "network": NET3,
        "seed": seed,
        "true_state": {"v_range": [0.97, 1.03], "theta_range": [-0.15, 0.15]},
        "noise": noise or {},
        "placements": placements or (
            [{"kind": "P_flow", "at": [i, j]} for i, j in [(1, 2), (1, 3), (2, 3)]]
            + [{"kind": "Q_flow", "at": [i, j]} for i, j in [(1, 2), (1, 3), (2, 3)]]
            + [{"kind": "P_inj", "at": [i]} for i in (1, 2, 3)]
            + [{"kind": "Q_inj", "at": [i]} for i in (1, 2, 3)]
            + [{"kind": "V_mag", "at": [i]} for i in (1, 2, 3)]
        ),
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


BRANCHES3 = [(1, 2), (1, 3), (2, 3)]
# one observable placement per constant-Jacobian formulation on net3
LINEAR_PLACEMENTS = {
    "dc": ([{"kind": "P_flow_dc", "at": [i, j]} for i, j in BRANCHES3]
           + [{"kind": "P_inj_dc", "at": [i]} for i in (1, 2, 3)]
           + [{"kind": "Theta", "at": [2]}]),
    "linear_rect": ([{"kind": k, "at": [i]} for i in (1, 2, 3)
                     for k in ("V_re", "V_im")]
                    + [{"kind": k, "at": [1, 2]} for k in ("I_re", "I_im")]),
}


def synth(tmp_path, out="data", **kwargs):
    spec = write_scenario(tmp_path, **kwargs)
    outdir = tmp_path / out
    rc = main(["synthesize", "--spec", str(spec), "--out", str(outdir)])
    assert rc == 0
    return outdir


class TestSynthesizeCommand:
    def test_writes_measurements_truth_and_manifest(self, tmp_path):
        outdir = synth(tmp_path)
        assert (outdir / "measurements.json").exists()
        assert (outdir / "truth.json").exists()
        assert (outdir / "manifest.json").exists()
        truth = json.loads((outdir / "truth.json").read_text())
        assert truth["rng"] == "numpy-pcg64"
        assert truth["seed"] == 21

    def test_repeat_run_identical_bytes(self, tmp_path):
        a = synth(tmp_path, out="a")
        b = synth(tmp_path, out="b")
        assert (a / "measurements.json").read_bytes() == \
            (b / "measurements.json").read_bytes()
        assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        spec = write_scenario(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synthesize", "--spec", str(spec), "--out", str(a),
                     "--seed", "99"]) == 0
        assert main(["synthesize", "--spec", str(spec), "--out", str(b)]) == 0
        assert (a / "measurements.json").read_bytes() != \
            (b / "measurements.json").read_bytes()

    def test_manifest_records_absolute_paths(self, tmp_path, monkeypatch):
        spec = write_scenario(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["synthesize", "--spec", spec.name, "--out", "data"]) == 0
        doc = json.loads((tmp_path / "data" / "manifest.json").read_text())
        assert os.path.isabs(doc["spec"]) and os.path.isabs(doc["out"])
        assert os.path.samefile(doc["spec"], spec)
        assert os.path.samefile(doc["out"], tmp_path / "data")

    def test_invalid_placement_exits_one(self, tmp_path, capsys):
        spec = write_scenario(tmp_path, placements=[
            {"kind": "P_flow", "at": [1, 9]},
            {"kind": "V_mag", "at": [1]},
        ])
        rc = main(["synthesize", "--spec", str(spec), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "placement P_flow at [1, 9]" in err
        assert "no branch between buses 1 and 9" in err


class TestEstimateCommand:
    def test_zero_noise_conventional_run(self, tmp_path, capsys):
        data = synth(tmp_path)
        outdir = tmp_path / "run"
        rc = main(["estimate", "--net", NET3,
                   "--measurements", str(data / "measurements.json"),
                   "--formulation", "conventional", "--out", str(outdir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged" in out
        doc = json.loads((outdir / "result.json").read_text())
        assert doc["converged"] is True
        assert doc["iterations"] <= 6
        # estimate matches the recorded truth
        truth = json.loads((data / "truth.json").read_text())
        got = {b["id"]: b for b in doc["state"]["buses"]}
        for bus in truth["state"]["buses"]:
            assert got[bus["id"]]["V"] == pytest.approx(bus["V"], abs=1e-8)
            assert got[bus["id"]]["theta"] == pytest.approx(bus["theta"], abs=1e-8)

    def test_flat_start_estimate_writes_nothing_to_stderr(self, tmp_path, capsys, net14):
        """net14's shuntless branches carry no current at the flat start;
        the first iterate leaves their I_mag rows out, so nothing warns."""
        placements = [{"kind": str(kind), "at": list(at)} for kind, at in legacy_plan(net14)]
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps({
            "network": NET14, "seed": 5, "placements": placements,
            "true_state": {"v_range": [0.97, 1.03], "theta_range": [-0.05, 0.05]}}))
        assert main(["synthesize", "--spec", str(spec), "--out", str(tmp_path / "data")]) == 0
        capsys.readouterr()
        # as in a plain process: no handler on the root logger, so a
        # warning would reach stderr through logging's last resort
        handlers = logging.root.handlers[:]
        for handler in handlers:
            logging.root.removeHandler(handler)
        try:
            rc = main(["estimate", "--net", NET14,
                       "--measurements", str(tmp_path / "data" / "measurements.json"),
                       "--formulation", "conventional", "--out", str(tmp_path / "run")])
        finally:
            for handler in handlers:
                logging.root.addHandler(handler)
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_json_summary(self, tmp_path, capsys):
        data = synth(tmp_path)
        capsys.readouterr()  # drop the synthesize summary line
        rc = main(["estimate", "--net", NET3,
                   "--measurements", str(data / "measurements.json"),
                   "--formulation", "conventional",
                   "--out", str(tmp_path / "run"), "--json"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["converged"] is True
        assert summary["exit_code"] == 0

    def test_manifest_rerun_is_bit_identical(self, tmp_path):
        data = synth(tmp_path)
        outdir = tmp_path / "run"
        assert main(["estimate", "--net", NET3,
                     "--measurements", str(data / "measurements.json"),
                     "--formulation", "conventional",
                     "--out", str(outdir)]) == 0
        first = (outdir / "result.json").read_bytes()
        rerun = tmp_path / "rerun"
        assert main(["estimate", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(rerun)]) == 0
        assert (rerun / "result.json").read_bytes() == first

    @pytest.mark.parametrize("formulation", ["dc", "linear_rect"])
    def test_manifest_rerun_is_bit_identical_linear(self, tmp_path, formulation):
        data = synth(tmp_path, placements=LINEAR_PLACEMENTS[formulation])
        outdir = tmp_path / "run"
        assert main(["estimate", "--net", NET3,
                     "--measurements", str(data / "measurements.json"),
                     "--formulation", formulation,
                     "--out", str(outdir)]) == 0
        first = (outdir / "result.json").read_bytes()
        doc = json.loads(first)
        assert doc["converged"] is True and doc["iterations"] == 1
        assert len(doc["max_step_trace"]) == 1
        rerun = tmp_path / "rerun"
        assert main(["estimate", "--manifest", str(outdir / "manifest.json"),
                     "--out", str(rerun)]) == 0
        assert (rerun / "result.json").read_bytes() == first

    def test_manifest_with_empty_config_uses_solver_defaults(self, tmp_path):
        data = synth(tmp_path)
        outdir = tmp_path / "run"
        assert main(["estimate", "--net", NET3,
                     "--measurements", str(data / "measurements.json"),
                     "--formulation", "conventional",
                     "--out", str(outdir)]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        manifest["config"] = {}
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(manifest))
        rerun = tmp_path / "rerun"
        assert main(["estimate", "--manifest", str(bare),
                     "--out", str(rerun)]) == 0
        replayed = json.loads((rerun / "manifest.json").read_text())
        assert replayed["config"] == {**dataclasses.asdict(SolverConfig()),
                                      "neglect_phasor_covariance": False}
        assert (rerun / "result.json").read_bytes() == \
            (outdir / "result.json").read_bytes()

    def test_invalid_solver_config_exits_one(self, tmp_path, capsys):
        data = synth(tmp_path)
        rc = main(["estimate", "--net", NET3,
                   "--measurements", str(data / "measurements.json"),
                   "--formulation", "conventional", "--max-iter", "0",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "invalid solver configuration" in capsys.readouterr().err
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "command": "estimate", "network": NET3,
            "measurements": str(data / "measurements.json"),
            "formulation": "conventional",
            "config": {"step_tolerance": "tight"}}))
        assert main(["estimate", "--manifest", str(manifest),
                     "--out", str(tmp_path / "o")]) == 1

    # an infinite step tolerance would stop at once and call the start
    # converged, a NaN one would never stop
    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_step_tolerance_exits_one(self, tmp_path, capsys, tol):
        data = synth(tmp_path)
        out = tmp_path / "o"
        rc = main(["estimate", "--net", NET3,
                   "--measurements", str(data / "measurements.json"),
                   "--formulation", "conventional", "--tol", tol, "--out", str(out)])
        assert rc == 1
        assert "error: invalid solver configuration: step_tolerance" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("change", [
        {"network": None}, {"measurements": None}, {"formulation": None},
        {"config": []}, {"network": 5}, {"out": ["o"]}],
        ids=["no-network", "no-measurements", "no-formulation", "config-list",
             "network-number", "out-list"])
    def test_malformed_manifest_exits_one(self, tmp_path, capsys, change):
        data = synth(tmp_path)
        doc = {"command": "estimate", "network": NET3,
               "measurements": str(data / "measurements.json"),
               "formulation": "conventional", "config": {}}
        doc.update(change)
        doc = {key: value for key, value in doc.items() if value is not None}
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(doc))
        assert main(["estimate", "--manifest", str(manifest),
                     "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [{"command": "estimate"}, ["estimate"]],
                             ids=["command-only", "list"])
    def test_bare_manifest_exits_one(self, tmp_path, doc):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(doc))
        assert main(["estimate", "--manifest", str(manifest)]) == 1

    def test_dc_rejects_reactive_flow_with_exit_one(self, tmp_path, capsys):
        meas = tmp_path / "m.json"
        meas.write_text(json.dumps({"measurements": [
            {"kind": "P_flow_dc", "at": [1, 2], "value": 0.5, "variance": 1e-4},
            {"kind": "Q_flow", "at": [1, 2], "value": 0.1, "variance": 1e-4},
        ]}))
        rc = main(["estimate", "--net", NET3, "--measurements", str(meas),
                   "--formulation", "dc", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "not admissible" in capsys.readouterr().err

    def test_underdetermined_exits_three(self, tmp_path, capsys):
        meas = tmp_path / "m.json"
        meas.write_text(json.dumps({"measurements": [
            {"kind": "V_mag", "at": [1], "value": 1.0, "variance": 1e-4},
        ]}))
        rc = main(["estimate", "--net", NET3, "--measurements", str(meas),
                   "--formulation", "conventional", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "singular gain" in capsys.readouterr().err

    def test_numerically_singular_gain_exits_three(self, tmp_path, capsys):
        # theta_2 and theta_4 are tied by one injection row only
        rows = [{"kind": "Theta", "at": [i], "value": 0.01 * i, "variance": 1e-4}
                for i in range(1, 15) if i not in (2, 4)]
        rows.append({"kind": "P_inj_dc", "at": [4], "value": 0.3,
                     "variance": 1e-4})
        meas = tmp_path / "m.json"
        meas.write_text(json.dumps({"measurements": rows}))
        rc = main(["estimate", "--net", NET14, "--measurements", str(meas),
                   "--formulation", "dc", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "numerically singular" in capsys.readouterr().err

    def test_no_unknowns_solve_alike_under_both_methods(self, tmp_path):
        # one slack bus, no branches: DC leaves no angle to solve for
        net = tmp_path / "net1.json"
        net.write_text(json.dumps({"buses": [{"id": 1, "slack": True}], "branches": []}))
        meas = tmp_path / "m.json"
        meas.write_text(json.dumps({"measurements": [
            {"kind": "Theta", "at": [1], "value": 0.0, "variance": 1e-4}]}))
        results = []
        for method in ("normal", "orthogonal"):
            out = tmp_path / method
            assert main(["estimate", "--net", str(net), "--measurements", str(meas),
                         "--formulation", "dc", "--linear-method", method,
                         "--out", str(out)]) == 0
            results.append((out / "result.json").read_bytes())
        assert results[0] == results[1]
        assert json.loads(results[0])["objective_trace"] == [0.0]

    def test_singular_gain_names_the_weak_bus(self, tmp_path, capsys):
        # the set above: the weak unknown is theta at bus 2 or bus 4, not
        # a position in the slack-reduced state
        rows = [{"kind": "Theta", "at": [i], "value": 0.01 * i, "variance": 1e-4}
                for i in range(1, 15) if i not in (2, 4)]
        rows.append({"kind": "P_inj_dc", "at": [4], "value": 0.3,
                     "variance": 1e-4})
        meas = tmp_path / "m.json"
        meas.write_text(json.dumps({"measurements": rows}))
        rc = main(["estimate", "--net", NET14, "--measurements", str(meas),
                   "--formulation", "dc", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert re.search(r"for theta at bus [24] against", capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_value_exits_one(self, tmp_path, capsys, value):
        meas = tmp_path / "m.json"
        meas.write_text(
            '{"measurements": [{"kind": "V_mag", "at": [1], "value": %s, '
            '"variance": 1e-4}]}' % value)
        rc = main(["estimate", "--net", NET3, "--measurements", str(meas),
                   "--formulation", "conventional", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "not finite" in capsys.readouterr().err

    def test_iteration_cap_exits_two(self, tmp_path):
        data = synth(tmp_path, noise={"P_flow": 0.02, "Q_flow": 0.02,
                                      "P_inj": 0.02, "Q_inj": 0.02,
                                      "V_mag": 0.01})
        rc = main(["estimate", "--net", NET3,
                   "--measurements", str(data / "measurements.json"),
                   "--formulation", "conventional", "--max-iter", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        doc = json.loads((tmp_path / "o" / "result.json").read_text())
        assert doc["converged"] is False

    def test_warm_start_from_truth(self, tmp_path):
        data = synth(tmp_path)
        rc = main(["estimate", "--net", NET3,
                   "--measurements", str(data / "measurements.json"),
                   "--formulation", "conventional",
                   "--init", str(data / "truth.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        doc = json.loads((tmp_path / "o" / "result.json").read_text())
        # starting at the exact solution, no update is ever needed
        assert doc["iterations"] == 0

    def test_linear_rect_rejects_polar_init_exits_one(self, tmp_path, capsys):
        data = synth(tmp_path, placements=LINEAR_PLACEMENTS["linear_rect"])
        capsys.readouterr()
        rc = main(["estimate", "--net", NET3,
                   "--measurements", str(data / "measurements.json"),
                   "--formulation", "linear_rect",
                   "--init", str(data / "truth.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "needs a rectangular start" in capsys.readouterr().err

    @pytest.mark.parametrize("change, message", [
        (lambda buses: buses[:2], "start state has 2 bus(es), the network 3"),
        (lambda buses: buses + [{**buses[-1], "id": 4}],
         "start state has 4 bus(es), the network 3"),
        (lambda buses: buses[:2] + [{**buses[2], "id": 9}],
         "state bus ids must be 1..3, each once; got id 9"),
        (lambda buses: buses[:1] + [{**buses[1], "V": math.nan}] + buses[2:],
         "start state holds a non-finite value"),
    ], ids=["two-buses", "four-buses", "id-nine", "nan-magnitude"])
    def test_malformed_init_exits_one(self, tmp_path, capsys, change, message):
        data = synth(tmp_path)
        truth = json.loads((data / "truth.json").read_text())
        state = truth["state"]
        state["buses"] = change(state["buses"])
        init = tmp_path / "init.json"
        init.write_text(json.dumps(state))
        capsys.readouterr()
        rc = main(["estimate", "--net", NET3,
                   "--measurements", str(data / "measurements.json"),
                   "--formulation", "conventional", "--init", str(init),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert message in capsys.readouterr().err

    def test_manifest_records_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        data = synth(tmp_path)
        outdir = tmp_path / "run"
        assert main(["estimate", "--net", NET3,
                     "--measurements", str(data / "measurements.json"),
                     "--formulation", "conventional",
                     "--out", str(outdir)]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}}
        # manifests written before the key existed still replay
        del manifest["environment"]
        old = tmp_path / "old.json"
        old.write_text(json.dumps(manifest))
        rerun = tmp_path / "rerun"
        assert main(["estimate", "--manifest", str(old), "--out", str(rerun)]) == 0
        assert (rerun / "result.json").read_bytes() == \
            (outdir / "result.json").read_bytes()

    def test_unknown_formulation_exits_one(self, tmp_path, capsys):
        rc = main(["estimate", "--net", NET3, "--measurements", "x",
                   "--formulation", "bogus", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "unknown formulation" in capsys.readouterr().err

    def test_result_values_are_rounded_to_12_digits(self, tmp_path):
        data = synth(tmp_path)
        outdir = tmp_path / "run"
        main(["estimate", "--net", NET3,
              "--measurements", str(data / "measurements.json"),
              "--formulation", "conventional", "--out", str(outdir)])
        doc = json.loads((outdir / "result.json").read_text())
        for bus in doc["state"]["buses"]:
            assert float(f"{bus['V']:.12g}") == bus["V"]


class TestCheckCommand:
    def test_valid_network(self, capsys):
        assert main(["check", "--net", NET3]) == 0
        out = capsys.readouterr().out
        assert "N=3" in out

    def test_json_mode(self, capsys):
        assert main(["check", "--net", NET3, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["buses"] == 3
        assert doc["branches"] == 3
        assert doc["admittance_nonzeros"] == 9

    def test_disconnected_network(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({
            "buses": [{"id": 1, "slack": True}, {"id": 2}, {"id": 3}, {"id": 4}],
            "branches": [
                {"from": 1, "to": 2, "r": 0.1, "x": 0.2},
                {"from": 3, "to": 4, "r": 0.1, "x": 0.2},
            ],
        }))
        assert main(["check", "--net", str(path)]) == 1
        assert "not connected" in capsys.readouterr().err

    def test_zero_impedance_branch(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({
            "buses": [{"id": 1, "slack": True}, {"id": 2}],
            "branches": [{"from": 1, "to": 2, "r": 0.0, "x": 0.0}],
        }))
        assert main(["check", "--net", str(path)]) == 1
        assert "r = x = 0" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["check", "--net", str(tmp_path / "nope.json")]) == 1


def _net3_with(tmp_path, **branch):
    """net3 with its branch 1-2 changed as given."""
    doc = json.loads(Path(NET3).read_text())
    doc["branches"][0].update(branch)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _with_v_mag_1(data, **row):
    """The measurement file under data with its V_mag at bus 1 changed."""
    doc = json.loads((data / "measurements.json").read_text())
    next(r for r in doc["measurements"] if r["kind"] == "V_mag" and r["at"] == [1]).update(row)
    path = data / "changed.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestExtremeFiniteInputs:
    """A finite input whose arithmetic leaves the floating-point range is
    refused with its exit code, never a traceback."""

    @staticmethod
    def estimate(tmp_path, net, meas, formulation, method):
        return main(["estimate", "--net", net, "--measurements", meas,
                     "--formulation", formulation, "--linear-method", method,
                     "--out", str(tmp_path / method)])

    def test_impedance_whose_square_underflows_exits_one(self, tmp_path, capsys):
        # r^2 + x^2 underflows to 0, which r = x = 0 alone missed
        net = _net3_with(tmp_path, r=1e-200, x=0.0)
        assert main(["check", "--net", net]) == 1
        assert "branch 1-2" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["normal", "orthogonal"])
    def test_reactance_whose_susceptance_overflows_exits_one(self, tmp_path, capsys, method):
        data = synth(tmp_path, placements=LINEAR_PLACEMENTS["dc"])
        net = _net3_with(tmp_path, x=1e-320)
        rc = self.estimate(tmp_path, net, str(data / "measurements.json"), "dc", method)
        assert rc == 1
        assert "branch 1-2 has reactance 1e-320" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["normal", "orthogonal"])
    def test_variance_whose_weight_overflows_exits_one(self, tmp_path, capsys, method):
        meas = _with_v_mag_1(synth(tmp_path), variance=1e-320)
        assert self.estimate(tmp_path, NET3, meas, "conventional", method) == 1
        assert "variance 1e-320 of row 12 has no finite inverse" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [1e154, 1e308])
    @pytest.mark.parametrize("method", ["normal", "orthogonal"])
    def test_diverging_iterates_exit_two(self, tmp_path, caplog, method, value):
        meas = _with_v_mag_1(synth(tmp_path), value=value)
        with caplog.at_level(logging.WARNING, logger="gridse"):
            assert self.estimate(tmp_path, NET3, meas, "conventional", method) == 2
        assert "the iterates diverge" in caplog.text
        doc = json.loads((tmp_path / method / "result.json").read_text())
        assert doc["converged"] is False
        # the last iterate whose residual was finite: here the flat start
        assert all(math.isfinite(b["V"]) for b in doc["state"]["buses"])
        assert doc["iterations"] == 0 and doc["max_step_trace"] == []
        assert len(doc["objective_trace"]) == 1


def _set(*path_and_value):
    """A change that sets doc[p0][p1]...[pn] to the value."""
    *path, value = path_and_value

    def change(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc
    return change


# file -> change that makes its valid document malformed.  Each of these
# was once read wrongly or ended in a traceback.  Row 12 of the
# measurement file and of the scenario's placements is V_mag at [1].
MALFORMED = {
    "network-id-string": ("network", _set("buses", 1, "id", "x")),
    "network-id-null": ("network", _set("buses", 1, "id", None)),
    "network-id-fraction": ("network", _set("buses", 0, "id", 1.5)),
    "network-from-string": ("network", _set("branches", 0, "from", "a")),
    "network-buses-number": ("network", _set("buses", 5)),
    "network-slack-string": ("network", _set("buses", 0, "slack", "false")),
    "measurements-entry-number": ("measurements", _set("measurements", 0, 5)),
    "measurements-list-number": ("measurements", _set("measurements", 5)),
    "measurements-at-fraction": ("measurements", _set("measurements", 12, "at", [1.7])),
    "measurements-at-string": ("measurements", _set("measurements", 12, "at", ["2"])),
    "measurements-variance-flag": ("measurements", _set("measurements", 0, "variance", True)),
    "scenario-at-string": ("scenario", _set("placements", 12, "at", ["a"])),
    "scenario-seed-string": ("scenario", _set("seed", "x")),
    "scenario-placement-number": ("scenario", _set("placements", 0, 5)),
    "scenario-noise-string": ("scenario", _set("noise", "x")),
    "scenario-range-short": ("scenario", _set("true_state", "v_range", [1])),
    "init-list": ("init", lambda doc: [1, 2]),
    "init-slack-fraction": ("init", _set("slack_bus", 1.9)),
    "manifest-flag-string": ("manifest", _set("config", "neglect_phasor_covariance", "no")),
}


class TestMalformedDocuments:
    @staticmethod
    def run(tmp_path, changed=None, change=None):
        """Write valid network, measurement, scenario, start-state and
        manifest files, the ``changed`` one after ``change``, and run the
        command that reads it; with ``changed=None``, run synthesize,
        estimate from the manifest and estimate with --init."""
        data = synth(tmp_path)
        docs = {
            "network": json.loads(Path(NET3).read_text()),
            "measurements": json.loads((data / "measurements.json").read_text()),
            "scenario": json.loads(write_scenario(tmp_path).read_text()),
            "init": json.loads((data / "truth.json").read_text())["state"],
            "manifest": {"command": "estimate", "network": "network.json",
                         "measurements": "measurements.json",
                         "formulation": "conventional",
                         "config": {"neglect_phasor_covariance": False}},
        }
        if changed:
            docs[changed] = change(docs[changed])
        for name, doc in docs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        files = {name: str(tmp_path / f"{name}.json") for name in docs}
        argvs = {
            "scenario": ["synthesize", "--spec", files["scenario"]],
            "manifest": ["estimate", "--manifest", files["manifest"]],
            "init": ["estimate", "--net", files["network"],
                     "--measurements", files["measurements"],
                     "--formulation", "conventional", "--init", files["init"]],
        }
        if changed in ("network", "measurements"):
            argvs[changed] = argvs["init"][:-2]
        return [main(argv + ["--out", str(tmp_path / "out")])
                for name, argv in argvs.items() if changed in (None, name)]

    def test_valid_documents_run(self, tmp_path):
        assert self.run(tmp_path) == [0] * 3

    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_document_exits_one(self, tmp_path, capsys, name):
        assert self.run(tmp_path, *MALFORMED[name]) == [1]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
