"""Span recorder for the traced run, and the count of dropped rows.

The tracer wraps public gridse callables at each module boundary, in every
place a caller looks them up: a module-level function is replaced in each
``gridse`` module that holds it (``gridse.cli.load_network``,
``gridse.estimators.assemble_admittance``, ...), a method on its class.
Spans stay in memory as (name, start, end, parent, estimate id) and are
written out when the run ends.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import json
import logging
import sys
import time
from collections import defaultdict

import gridse
import gridse.cli
import gridse.estimators
import gridse.functions
import gridse.measurements
import gridse.network
import gridse.synthesis

E = gridse.estimators
M = gridse.measurements

# layer -> the callables it covers.  Module functions are given by their
# defining module; (class, name) pairs are methods.
LAYERS = {
    "synthesis.synthesize": [(gridse.synthesis, "synthesize")],
    "network.load": [(gridse.network, "load_network")],
    "network.admittance": [(gridse.network, "assemble_admittance")],
    "measurements.load": [(M, "load_measurements")],
    "measurements.validate": [(M.MeasurementSet, "validate_against")],
    "measurements.cov_inverse": [(M.CovarianceModel, "inverse")],
    "measurements.whitener": [(M.CovarianceModel, "whitener")],
    "functions.h_jac": [(E.EstimationProblem, "rows")],
    "functions.h": [(E.EstimationProblem, "values")],
    "functions.linear_h": [(gridse.functions, "linear_rows_rectstate"),
                           (gridse.functions, "dc_rows")],
    "estimators.assemble": [(E, "assemble_problem")],
    "estimators.solve": [(E, "solve")],
    "estimators.gain_solve": [(E.GainSystem, "solve")],
    "estimators.objective": [(E, "objective")],
    "estimators.gauss_newton": [(E, "gauss_newton")],
    "estimators.linear_wls": [(E, "linear_wls")],
    "estimators.result_to_dict": [(E, "result_to_dict")],
    "cli.main_self": [(gridse.cli, "main")],
}


class SpanRecorder:
    """In-memory spans; one open-span stack for the single caller."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, estimate]
        self._open: list[int] = []
        self.estimate_id = None
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self.estimate_id])

    def end(self) -> None:
        self.spans[self._open.pop()][2] = time.perf_counter()

    def add(self, name: str, start: float, end: float) -> None:
        """A finished span with no parent, such as the package import."""
        self.spans.append([name, start, end, None, None])

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return traced

    def install(self) -> None:
        """Wrap every callable in LAYERS where callers look it up."""
        modules = [mod for key, mod in sys.modules.items()
                   if key == "gridse" or key.startswith("gridse.")]
        for name, targets in LAYERS.items():
            for owner, attr in targets:
                orig = getattr(owner, attr)
                wrapped = self._wrap(name, orig)
                if isinstance(owner, type):
                    holders = [owner]
                else:
                    holders = [mod for mod in modules
                               if getattr(mod, attr, None) is orig]
                for holder in holders:
                    self._patched.append((holder, attr, orig))
                    setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._patched):
            setattr(holder, attr, orig)
        self._patched.clear()

    def self_times(self):
        """Per layer: (total self time, calls) for spans inside estimates."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(lambda: [0.0, 0])
        for k, (name, start, end, parent, est) in enumerate(self.spans):
            if est is None:
                continue
            totals[name][0] += end - start - child[k]
            totals[name][1] += 1
        return totals

    def calls_in(self, name: str, estimate_id) -> int:
        return sum(1 for s in self.spans if s[0] == name and s[4] == estimate_id)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, est in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "estimate": est}) + "\n")


class DropCounter(logging.Handler):
    """Counts the rows gauss_newton drops at flat-singular iterates.

    Installed on the ``gridse`` logger, it also keeps those warnings off
    stderr, where Python's last-resort handler would print them.
    """

    def __init__(self):
        super().__init__(logging.WARNING)
        self.rows = 0

    def emit(self, record):
        if record.msg == "dropping %d flat-singular row(s) for this iteration":
            self.rows += int(record.args[0])
        else:
            sys.stderr.write(self.format(record) + "\n")

    def attach(self) -> "DropCounter":
        logging.getLogger("gridse").addHandler(self)
        return self
