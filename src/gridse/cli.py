"""Command-line front end: estimate, synthesize, check.

Exit codes: 0 success/converged, 1 input errors, 2 estimation did not
converge, 3 singular gain matrix.  Every run writes a manifest echo
next to its outputs; `estimate --manifest` replays a recorded estimate.
Result files carry 12 significant digits; measurement and truth files
keep full precision so reruns are bit-identical in zero-noise mode.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import operator
import os
import platform
import sys

import numpy as np
import scipy

from . import __version__
from .documents import (
    fields, flags, integers, numbers, objects, read_json, strings, strings_or_null)
from .errors import EstimationError, InputError, SingularGain
from .estimators import (
    NORMAL,
    ORTHOGONAL,
    Formulation,
    SolverConfig,
    assemble_problem,
    result_to_dict,
    solve,
)
from .measurements import load_measurements, measurements_to_dict
from .network import load_network
from .states import StateVector
from .synthesis import (
    load_scenario,
    sample_true_state,
    state_from_dict,
    synthesize,
    truth_to_dict,
)

FORMULATION_TAGS = [f.value for f in Formulation]
SOLVER_DEFAULTS = SolverConfig()
# The BLAS numpy was built against, read once for the estimate manifest.
_BLAS_BUILD = np.__config__.CONFIG["Build Dependencies"]["blas"]
BLAS = f"{_BLAS_BUILD.get('name')} {_BLAS_BUILD.get('version')}"


# Every file the CLI writes is json.dumps(doc, indent=2); in result and
# estimate-manifest files every float is first rounded to RESULT_DIGITS
# significant digits.  json only uses its C encoder without indent, so
# _encode lays the document out itself and hands each column of scalars
# to the C encoder in one call: a list of scalars, or one key of a list of
# same-keyed objects (a table such as the residual rows).  Object keys
# must be strings.
RESULT_DIGITS = 12
_ROUND_FORMAT = f"{{:.{RESULT_DIGITS}g}}".format
# With "\n" between items, the C encoder's output splits into one token
# per item: ensure_ascii escapes every newline inside a string.
_SCALAR_COLUMN = json.JSONEncoder(separators=("\n", ":"))
_encode_key = json.encoder.encode_basestring_ascii


def _rounded(v: float) -> float:
    return float(_ROUND_FORMAT(v))


def _shape(t: type):
    """How json lays out values of type t: list, dict, or None (scalar)."""
    if issubclass(t, (list, tuple)):
        return list
    return dict if issubclass(t, dict) else None


def _tokens(values: list, pad: str, rounded: bool) -> list[str]:
    """One token per value, as json.dumps(value, indent=2) lays it out
    at indentation ``pad``, floats rounded if ``rounded``."""
    if not values:
        return []
    types = set(map(type, values))
    shapes = {_shape(t) for t in types}
    inner = pad + "  "
    if shapes == {None}:
        if rounded and types == {float}:
            values = list(map(float, map(_ROUND_FORMAT, values)))
        elif rounded and any(issubclass(t, float) for t in types):
            values = [_rounded(v) if isinstance(v, float) else v for v in values]
        return _SCALAR_COLUMN.encode(values)[1:-1].split("\n")
    if len(shapes) > 1:
        return [_tokens([v], pad, rounded)[0] for v in values]
    if shapes == {list}:
        flat = _tokens(list(itertools.chain.from_iterable(values)), inner, rounded)
        sep = ",\n" + inner
        out, start = [], 0
        for n in map(len, values):
            out.append(f"[\n{inner}{sep.join(flat[start:start + n])}\n{pad}]"
                       if n else "[]")
            start += n
        return out
    keys = set(map(tuple, values))
    if len(keys) > 1:
        return [_tokens([v], pad, rounded)[0] for v in values]
    (keys,) = keys
    if not keys:
        return ["{}"] * len(values)
    row = ",\n".join(inner + _encode_key(k).replace("%", "%%") + ": %s"
                     for k in keys)
    columns = [_tokens(list(map(operator.itemgetter(k), values)), inner, rounded)
               for k in keys]
    return [f"{{\n{row % cells}\n{pad}}}" for cells in zip(*columns)]


def _encode(doc, rounded: bool = True) -> str:
    """json.dumps(doc, indent=2), floats rounded to RESULT_DIGITS if
    ``rounded``."""
    return _tokens([doc], "", rounded)[0]


def _write(path: str, doc: dict, rounded: bool):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_encode(doc, rounded) + "\n")


_MANIFEST = {"command": strings, "network": strings, "measurements": strings,
             "formulation": strings, "config": (objects, {}),
             "init": (strings_or_null, None), "out": (strings_or_null, None),
             "tool_version": (strings, ""), "environment": (objects, {})}
_CONFIG = {"max_iterations": (integers, SOLVER_DEFAULTS.max_iterations),
           "step_tolerance": (numbers, SOLVER_DEFAULTS.step_tolerance),
           "linear_system_method": (strings, SOLVER_DEFAULTS.linear_system_method),
           "neglect_phasor_covariance": (flags, False)}
_TRUTH = {"state": objects, "rng": (strings, ""), "seed": (integers, 0)}


def _cmd_estimate(args) -> int:
    if args.manifest:
        doc = read_json(args.manifest, "manifest")
        if not isinstance(doc, dict) or doc.get("command") != "estimate":
            raise InputError(f"{args.manifest} is not an estimate manifest")
        doc = fields(doc, "manifest", _MANIFEST)
        config = fields(doc["config"], "manifest config", _CONFIG)
        base = os.path.dirname(os.path.abspath(args.manifest))
        net_path = os.path.join(base, doc["network"])
        meas_path = os.path.join(base, doc["measurements"])
        formulation = doc["formulation"]
        neglect = config.pop("neglect_phasor_covariance")
        cfg = SolverConfig(**config)
        init_path = doc["init"]
        if init_path:
            init_path = os.path.join(base, init_path)
        out_dir = args.out or doc["out"] or "."
    else:
        if not args.net or not args.measurements or not args.formulation:
            raise InputError(
                "estimate needs --net, --measurements and --formulation "
                "(or --manifest)")
        net_path = args.net
        meas_path = args.measurements
        formulation = args.formulation
        cfg = SolverConfig(max_iterations=args.max_iter, step_tolerance=args.tol,
                           linear_system_method=args.linear_method)
        neglect = args.neglect_phasor_cov
        init_path = args.init
        out_dir = args.out or "."
    try:
        formulation = Formulation(formulation)
    except ValueError:
        raise InputError(
            f"unknown formulation {formulation!r}; choose from "
            f"{FORMULATION_TAGS}") from None

    net = load_network(net_path)
    mset = load_measurements(meas_path)
    x0: StateVector | None = None
    if init_path:
        init_doc = read_json(init_path, "start state file")
        if isinstance(init_doc, dict) and "state" in init_doc:  # a truth file
            init_doc = fields(init_doc, "truth", _TRUTH)["state"]
        x0 = state_from_dict(init_doc)

    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "command": "estimate",
        "tool_version": __version__,
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__, "scipy": scipy.__version__,
                        "blas": BLAS,
                        "blas_threads": {name: os.environ.get(name) for name in
                                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}},
        "network": os.path.abspath(net_path),
        "measurements": os.path.abspath(meas_path),
        "formulation": formulation.value,
        "config": {**dataclasses.asdict(cfg), "neglect_phasor_covariance": neglect},
        "init": os.path.abspath(init_path) if init_path else None,
        "out": os.path.abspath(out_dir),
    }
    _write(os.path.join(out_dir, "manifest.json"), manifest, rounded=True)

    problem = assemble_problem(net, mset, formulation,
                               neglect_phasor_covariance=neglect)
    result = solve(problem, cfg, x0)

    result_path = os.path.join(out_dir, "result.json")
    _write(result_path, result_to_dict(problem, result), rounded=True)

    objective = result.objective_trace[-1] if result.objective_trace else float("nan")
    max_resid = float(max(abs(r) for r in result.residuals)) if len(result.residuals) else 0.0
    exit_code = 0 if result.converged else 2
    if args.json:
        print(json.dumps({
            "formulation": formulation.value,
            "converged": result.converged,
            "iterations": result.iterations,
            "objective": _rounded(objective),
            "max_abs_residual": _rounded(max_resid),
            "result_file": result_path,
            "exit_code": exit_code,
        }))
    else:
        status = "converged" if result.converged else "NOT CONVERGED"
        print(f"{formulation}: {status} in {result.iterations} iteration(s), "
              f"objective {objective:.6g}, max |residual| {max_resid:.6g} "
              f"-> {result_path}")
    return exit_code


def _cmd_synthesize(args) -> int:
    spec = load_scenario(args.spec)
    if args.seed is not None:
        spec = spec.with_seed(args.seed)
    x_true = sample_true_state(spec)
    mset = synthesize(spec, x_true)
    os.makedirs(args.out, exist_ok=True)
    manifest = {
        "command": "synthesize",
        "tool_version": __version__,
        "spec": os.path.abspath(args.spec),
        "seed": spec.seed,
        "out": os.path.abspath(args.out),
    }
    _write(os.path.join(args.out, "manifest.json"), manifest, rounded=False)
    meas_path = os.path.join(args.out, "measurements.json")
    truth_path = os.path.join(args.out, "truth.json")
    _write(meas_path, measurements_to_dict(mset), rounded=False)
    _write(truth_path, truth_to_dict(spec, x_true), rounded=False)
    if args.json:
        print(json.dumps({
            "rows": len(mset),
            "seed": spec.seed,
            "measurement_file": meas_path,
            "truth_file": truth_path,
        }))
    else:
        print(f"synthesized {len(mset)} measurement(s) with seed {spec.seed} "
              f"-> {meas_path}")
    return 0


def _cmd_check(args) -> int:
    net = load_network(args.net)
    y = net.admittance
    if args.json:
        print(json.dumps({
            "buses": net.n_buses,
            "branches": len(net.branches),
            "admittance_nonzeros": y.nnz,
            "slack_bus": net.slack_bus,
            "base_mva": net.base_mva,
        }))
    else:
        print(f"ok: N={net.n_buses} buses, {len(net.branches)} branch(es), "
              f"{y.nnz} admittance nonzeros, slack bus {net.slack_bus}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridse",
        description="Weighted least-squares state estimation for "
                    "transmission grids.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="solve a WLS estimation problem")
    est.add_argument("--net", help="network JSON file")
    est.add_argument("--measurements", help="measurement JSON file")
    est.add_argument("--formulation",
                     help="measurement model family: " + ", ".join(FORMULATION_TAGS))
    est.add_argument("--max-iter", type=int,
                     default=SOLVER_DEFAULTS.max_iterations,
                     help="Gauss-Newton iteration cap (default %(default)s)")
    est.add_argument("--tol", type=float,
                     default=SOLVER_DEFAULTS.step_tolerance,
                     help="max |dx| stopping threshold (default %(default)s)")
    est.add_argument("--linear-method", choices=[NORMAL, ORTHOGONAL],
                     default=SOLVER_DEFAULTS.linear_system_method,
                     help="gain solve: normal equations or QR "
                          "(default %(default)s)")
    est.add_argument("--neglect-phasor-cov", action="store_true",
                     help="ignore recorded rectangular-phasor covariance blocks")
    est.add_argument("--init",
                     help="start state JSON file, in the formulation's "
                          "coordinates (rectangular for linear_rect)")
    est.add_argument("--out", help="output directory (default .)")
    est.add_argument("--manifest", help="replay a recorded run manifest")
    est.add_argument("--json", action="store_true",
                     help="machine-readable summary on stdout")
    est.set_defaults(func=_cmd_estimate)

    syn = sub.add_parser("synthesize", help="generate a synthetic scenario")
    syn.add_argument("--spec", required=True, help="scenario spec JSON file")
    syn.add_argument("--out", default=".", help="output directory")
    syn.add_argument("--seed", type=int, help="override the spec seed")
    syn.add_argument("--json", action="store_true",
                     help="machine-readable summary on stdout")
    syn.set_defaults(func=_cmd_synthesize)

    chk = sub.add_parser("check", help="validate a network file")
    chk.add_argument("--net", required=True, help="network JSON file")
    chk.add_argument("--json", action="store_true",
                     help="machine-readable summary on stdout")
    chk.set_defaults(func=_cmd_check)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by later main() calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SingularGain as exc:
        print(f"error: singular gain: {exc}", file=sys.stderr)
        return 3
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
