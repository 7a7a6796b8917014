"""The file encoder and the parser that main() reuses.

``cli._encode`` must write exactly what the reference below writes:
``json.dumps`` with ``indent=2`` after every float has been rounded to 12
significant digits.  It is checked on the result documents of every
formulation x linear method and on seeded random documents.  Unrounded,
as ``gridse synthesize`` writes its files, it must write exactly
``json.dumps(doc, indent=2)``: checked on the synthesized files of every
benchmark plan and on the same random documents.
"""

import json
import math
import random
from pathlib import Path

import pytest

from gridse import (
    SolverConfig,
    assemble_problem,
    load_network,
    load_scenario,
    measurements_to_dict,
    result_to_dict,
    sample_true_state,
    solve,
    synthesize,
    truth_to_dict,
)
from gridse.cli import _encode, _parser, build_parser, main

from conftest import FIXTURES
from test_golden import NET14, PLANS, SEED, THETA_RANGE, V_RANGE, synthesized

NET3 = str(FIXTURES / "net3.json")


def _round_sig(obj, digits: int = 12):
    """Recursively round floats to a fixed number of significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: _round_sig(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_sig(v, digits) for v in obj]
    return obj


def reference(doc) -> str:
    return json.dumps(_round_sig(doc), indent=2)


@pytest.mark.parametrize("method", ["normal", "orthogonal"])
@pytest.mark.parametrize("formulation", list(PLANS))
def test_result_documents_match_reference(formulation, method):
    net = load_network(NET14)
    problem = assemble_problem(net, synthesized(net, formulation), formulation)
    result = solve(problem, SolverConfig(linear_system_method=method))
    doc = result_to_dict(problem, result)
    assert _encode(doc) == reference(doc)


WORDS = ["a", "kind", ", ", "x, y", "é", "漢字", "\n", '"', "\\",
         "%s", "%", "\x00", "]", "}, {", ""]
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0]


def random_text(rng):
    return "".join(rng.choice(WORDS) for _ in range(rng.randint(0, 3)))


def random_scalar(rng):
    pick = rng.randrange(9)
    if pick == 0:
        return rng.choice(SPECIAL)
    if pick == 1:
        return 1e16 * rng.uniform(-9.0, 9.0)
    if pick == 2:
        return 1e-5 * rng.uniform(-9.0, 9.0)
    if pick == 3:
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20)
    if pick == 4:
        return rng.choice([True, False, 0, 1])
    if pick == 5:
        return rng.randint(-10**18, 10**18)
    if pick == 6:
        return None
    return random_text(rng)


def random_table(rng, depth):
    """Rows that mostly share one key order; some differ, some are empty."""
    keys = list(dict.fromkeys(random_text(rng) for _ in range(rng.randint(1, 4))))
    rows = []
    for _ in range(rng.randint(1, 5)):
        row_keys = keys
        if rng.random() < 0.2:
            row_keys = rng.sample(keys, rng.randint(0, len(keys)))
        rows.append({k: random_value(rng, depth - 1) for k in row_keys})
    return rows


def random_value(rng, depth):
    pick = rng.random()
    if depth <= 0 or pick < 0.35:
        return random_scalar(rng)
    if pick < 0.5:
        seq = [random_scalar(rng) for _ in range(rng.randint(0, 5))]
        return tuple(seq) if rng.random() < 0.2 else seq
    if pick < 0.7:
        return random_table(rng, depth)
    if pick < 0.85:
        return [random_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    return {random_text(rng): random_value(rng, depth - 1)
            for _ in range(rng.randint(0, 4))}


def test_random_documents_match_reference():
    rng = random.Random(20261018)
    for _ in range(3000):
        doc = random_value(rng, rng.randint(0, 5))
        assert _encode(doc) == reference(doc), doc


def test_unrounded_random_documents_match_json_dumps():
    rng = random.Random(20261018)
    for _ in range(3000):
        doc = random_value(rng, rng.randint(0, 5))
        assert _encode(doc, rounded=False) == json.dumps(doc, indent=2), doc


@pytest.mark.parametrize("formulation", list(PLANS))
def test_synthesized_files_match_json_dumps(tmp_path, formulation):
    plan, noise = PLANS[formulation]
    spec_path = tmp_path / "scenario.json"
    spec_path.write_text(json.dumps({
        "network": str(NET14), "seed": SEED,
        "true_state": {"v_range": V_RANGE, "theta_range": THETA_RANGE},
        "noise": {kind.value: sigma for kind, sigma in noise.items()},
        "placements": [{"kind": kind.value, "at": at}
                       for kind, at in plan(load_network(NET14))]}))
    out = tmp_path / "data"
    assert main(["synthesize", "--spec", str(spec_path), "--out", str(out)]) == 0
    spec = load_scenario(spec_path)
    x_true = sample_true_state(spec)
    docs = {"measurements.json": measurements_to_dict(synthesize(spec, x_true)),
            "truth.json": truth_to_dict(spec, x_true),
            "manifest.json": json.loads((out / "manifest.json").read_bytes())}
    for name, doc in docs.items():
        assert (out / name).read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()


# --- main() reuses one parser -------------------------------------------

def write_net3_data(tmp_path):
    """net3 measurements and truth from the CLI's own synthesize."""
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps({
        "network": NET3, "seed": 5,
        "true_state": {"v_range": [0.97, 1.03], "theta_range": [-0.1, 0.1]},
        "noise": {"P_flow": 0.01, "Q_flow": 0.01, "V_mag": 0.004},
        "placements": [{"kind": kind, "at": at}
                       for kind in ("P_flow", "Q_flow")
                       for at in ([1, 2], [1, 3], [2, 3])]
        + [{"kind": "V_mag", "at": [i]} for i in (1, 2, 3)]}))
    data = tmp_path / "data"
    assert main(["synthesize", "--spec", str(spec), "--out", str(data)]) == 0
    return data


def run(argv, capsys):
    """Exit code, stdout and the written files of one main() call."""
    capsys.readouterr()
    code = main(argv)
    out = argv[argv.index("--out") + 1]
    files = {name: Path(out, name).read_bytes()
             for name in ("manifest.json", "result.json")}
    return code, capsys.readouterr().out, files


def assert_like_fresh(first, second, capsys):
    """``second`` after ``first`` gives what it gives on a new parser."""
    _parser.cache_clear()
    fresh = run(second, capsys)
    run(first, capsys)
    assert run(second, capsys) == fresh
    assert vars(_parser().parse_args(second)) == vars(build_parser().parse_args(second))


def estimate_argv(data, out, *extra):
    return ["estimate", "--net", NET3, "--measurements", str(data / "measurements.json"),
            "--formulation", "conventional", "--out", str(out), *extra]


def test_parser_is_built_once(tmp_path):
    data = write_net3_data(tmp_path)
    parser = _parser()
    assert main(estimate_argv(data, tmp_path / "run")) == 0
    assert _parser() is parser


def test_json_summary_then_plain_line(tmp_path, capsys):
    data = write_net3_data(tmp_path)
    assert_like_fresh(estimate_argv(data, tmp_path / "a", "--json"),
                      estimate_argv(data, tmp_path / "b"), capsys)
    assert run(estimate_argv(data, tmp_path / "b"), capsys)[1].startswith(
        "conventional: converged")


def test_init_then_flat_start(tmp_path, capsys):
    data = write_net3_data(tmp_path)
    warm = estimate_argv(data, tmp_path / "a", "--init", str(data / "truth.json"))
    assert_like_fresh(warm, estimate_argv(data, tmp_path / "b"), capsys)
    assert json.loads(run(warm, capsys)[2]["manifest.json"])["init"] == \
        str(data / "truth.json")
    flat = run(estimate_argv(data, tmp_path / "b"), capsys)
    assert json.loads(flat[2]["manifest.json"])["init"] is None


def test_manifest_then_explicit_flags(tmp_path, capsys):
    data = write_net3_data(tmp_path)
    recorded = tmp_path / "rec"
    assert main(estimate_argv(data, recorded, "--max-iter", "1", "--json")) == 2
    replay = ["estimate", "--manifest", str(recorded / "manifest.json"),
              "--out", str(tmp_path / "a")]
    assert_like_fresh(replay, estimate_argv(data, tmp_path / "b"), capsys)
    code, _, files = run(estimate_argv(data, tmp_path / "b"), capsys)
    assert code == 0
    assert json.loads(files["manifest.json"])["config"]["max_iterations"] == \
        SolverConfig().max_iterations
