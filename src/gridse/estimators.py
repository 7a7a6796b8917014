"""WLS problem assembly and solvers.

Every formulation iterates Gauss-Newton on the gain system
J^T R^-1 J dx = J^T R^-1 r with the slack column eliminated, so 2N-1
unknowns are solved (N-1 for DC).  What sets the formulations apart is
one table, ``_FACTS``.  The DC and rectangular-phasor formulations have
a constant Jacobian: one step from any start lands on the WLS
minimiser, so the loop stops there.  Assembly works on the measurement
set's columns: the admissible-kind check, the location check, the
covariance blocks, z and the angle-row mask are array operations, done
once per problem.  Rows inactive at an iterate get zero weight in R^-1.
The normal method factors every gain of a network in a band under one
elimination order: whichever of reverse Cuthill-McKee and the file's
own bus order is narrower on the bus graph (``NetworkModel.bus_order``),
expanded to the layout's unknowns (``_Layout.order``).  On a 60 x 60
lattice the file order gives the linear_rect gain a half-bandwidth of
123, against 157 under RCM on the gain itself.  A layout pairs J's
entries in their storage order once, on its first normal solve, into
its one gain plan (``_GainPlan``).  A nonlinear layout's iterates sum
their band from the pairs, J and the weights.  A DC or linear_rect
layout, whose J is constant, folds each pair's product of J entries
into a map from R^-1's stored entries to the band, so an estimate forms
its band by one sparse product.  A gain too wide for the band, and a
standalone system (``linear_wls``), are formed by sparse products (the
product path).

What a measurement set's layout decides is analysed once per network
and formulation (``_Layout``).  The layout is the set's kind codes, its
locations and its correlated row pairs, with whether the phasor
covariance is neglected; the analysis holds the checked kinds and
locations, R^-1's pattern, the compiled rows, the elimination order,
the curvature pattern, and the gain plan.  The network keeps
its last analysis per formulation, and a set of the same layout reuses
it, as SCADA snapshots and PMU frames on fixed placements do.  So does
a set that lacks some of its rows, as a scan does whose telemetry comes
and goes: the problem holds those rows inactive with zero weight, which
every solve takes as it takes a row dropped for one iterate, and gets
the bits of an analysis of its own.  Where the analysis cannot promise
those bits (rows out of order or repeated, a correlated pair cut, a
narrower band or another band-or-SuperLU decision, or too many rows
absent) the set gets its own, and a set that brings rows gets one of
both sets' rows.  On the benchmark's 20 x 20 lattice, whose sets lack
the current rows of lightly loaded branches, 200 estimates then take
two analyses instead of 200 (BENCH_gn_iterations.json).  Values,
variances, covariances, R^-1's numbers and every gain's numbers are the
problem's; so is the factor it keeps for its estimate's last step.  The
one exception is a kernel layout's flat start (last paragraph).

Gauss-Newton, no damping or line search: the problem is mildly
nonlinear around operating states and divergence is reported as a
non-converged result instead of being masked.  There are three
departures.  The current magnitude rows add their exact second-order
term to every iterate but the first from the flat start, which then
solves (G - S) dx = J^T R^-1 r, S = sum_i w_i r_i hess |I|_i: Newton's
step for these rows (``_Curvature``).  Near a lightly loaded branch |I|
curves like 1/|I|, so the term Gauss-Newton drops is not small next to
the gain, and its tail was linear, with a ratio near sigma/|I| of the
weakest such row: a large-residual least-squares problem (Nocedal &
Wright, Numerical Optimization, ch. 10; Dennis, Gay & Welsch, NL2SOL,
1981).  With the term a conventional estimate on a 20 x 20 lattice
takes 4.2 iterations on average instead of 6.0
(BENCH_gn_iterations.json).  Where the factor refuses G - S, or along
its step S takes more than half of G, the iterate takes the plain
Gauss-Newton step.  The current angle rows get no such term: with it,
simultaneous_polar estimates took more iterations, not fewer.

The second departure is the first iterate from the flat start, which
leaves the polar current rows out (Abur & Exposito 2004, ch. 2).  There
every branch carries only its charging current, so |I| sits near its
kink and the current's angle is some 90 degrees off the flow's: with
these rows the first two steps on a 20 x 20 lattice were some 0.5 p.u.
against a solution within 0.05 of flat.  Without them a plain
Gauss-Newton estimate there took 5.95 iterations on average instead of
8.05, and a simultaneous_polar one 5.0 instead of 12.7, where one in 20
never converged.

The third is the last step of a normal-method estimate, which an
iterate after a step of at most sqrt(tol) first takes with the factor
of the iterate before, where that was taken under its weights: the
chord step (Kelley, Iterative Methods for Linear and Nonlinear
Equations, 1995, ch. 5).  A chord step of at most tol ends the
estimate without a gain of its own, and a longer one is discarded, so
the iterations and every step but the last are those of the iterate's
own gain.  Near the solution the chord step and the iterate's own
step differ by a small fraction of the tolerance.  A conventional
estimate on a 20 x 20 lattice factors 4.2 gains instead of 5.2
(BENCH_gn_iterations.json).

None of this changes what the first iterate from the flat start
solves, and that is one linear system in every estimate of a layout
but for its right-hand side: J there depends on the layout alone, and
the weights of SCADA scans, fixed variances per kind, repeat.  So a
kernel layout holds its rows at the flat start (``_Layout.flat_rows``)
and the factor of its last flat-start gain that passed the pivot test,
with the weights it was taken under.  A flat-start iterate under the
same weights takes that factor instead of forming and factoring its
gain; one under other weights factors its own, which replaces it.  The
same gain gives the same factor, so every bit is that of a fresh
network, and a refused gain is refused again.  On the benchmark's
20 x 20 lattice a conventional estimate factors 3.15 gains instead of
4.14 (BENCH_gn_iterations.json).  A DC or linear_rect layout keeps no
factor: its one solve is the whole estimate, and the converted weights
of PMU frames never repeat.  Nor does a kernel layout with rectangular
PMU rows, whose variances are converted the same way: no net14 or
lattice simultaneous_rect estimate took a kept factor.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpotrf, dpotrs, dtrtrs
from scipy.sparse import csc_matrix, csr_matrix, issparse
from scipy.sparse.linalg import splu

from .errors import (
    EmptyMeasurementSet,
    InputError,
    SingularGain,
    UnsupportedKind,
)
from .functions import MeasurementKernel, dc_rows, linear_rows_rectstate
from .measurements import (
    DC_KINDS,
    IS_ANGLE,
    IS_RECT,
    KINDS,
    LEGACY_KINDS,
    MeasurementKind,
    PHASOR_POLAR_KINDS,
    PHASOR_RECT_KINDS,
    CovarianceModel,
    InversePattern,
    MeasurementSet,
    kind_mask,
)
from .network import NetworkModel, narrow_order
from .states import POLAR, RECTANGULAR, StateVector, wrap_angles

log = logging.getLogger(__name__)


class Formulation(str, Enum):
    CONVENTIONAL = "conventional"
    SIMULTANEOUS_POLAR = "simultaneous_polar"
    SIMULTANEOUS_RECT = "simultaneous_rect"
    LINEAR_RECT = "linear_rect"
    DC = "dc"

    def __str__(self):
        return self.value


class _Facts(NamedTuple):
    """What sets a formulation apart.  ``admissible`` is a mask over kind
    codes; ``halves`` names the state halves the rows span; ``family``
    says how the rows are built: a MeasurementKernel, dc_rows or
    linear_rows_rectstate, both called through this module's globals,
    which a tracer may have replaced."""
    admissible: np.ndarray
    coordinates: str
    halves: tuple[str, ...]
    family: str


_KERNEL, _DC, _RECT = "kernel", "dc", "rect"
_THETA_V = ("theta", "V")
_FACTS = {
    Formulation.CONVENTIONAL: _Facts(kind_mask(LEGACY_KINDS), POLAR, _THETA_V, _KERNEL),
    Formulation.SIMULTANEOUS_POLAR: _Facts(
        kind_mask(LEGACY_KINDS | PHASOR_POLAR_KINDS), POLAR, _THETA_V, _KERNEL),
    Formulation.SIMULTANEOUS_RECT: _Facts(
        kind_mask(LEGACY_KINDS | PHASOR_RECT_KINDS), POLAR, _THETA_V, _KERNEL),
    Formulation.LINEAR_RECT: _Facts(
        kind_mask(PHASOR_RECT_KINDS), RECTANGULAR, ("Re V", "Im V"), _RECT),
    Formulation.DC: _Facts(kind_mask(DC_KINDS), POLAR, ("theta",), _DC),
}

NORMAL = "normal"
ORTHOGONAL = "orthogonal"

# The polar current rows, left out of the first iterate from the flat
# start (see the module docstring).  No kind here may sit in a 2x2
# covariance block, so leaving them out never cuts one.
_POLAR_CURRENT = kind_mask({MeasurementKind.I_MAG, MeasurementKind.I_MAG_PMU,
                            MeasurementKind.I_ANG_PMU})

# The DEBUG record of an iterate whose gain with the second-order term
# was refused, so that it took the Gauss-Newton step.
_REFUSED = "second-order gain refused (%s): taking the Gauss-Newton step"

# The DEBUG record of an estimate that converged on the kept factor.
_CONFIRMED = "converged on the kept factor: step %.3g"

# The DEBUG record of a flat-start iterate that took its layout's factor.
_REUSED = "reusing the layout's flat-start factor"

# The WARNING record of an estimate whose iterate ran out of range.
_DIVERGED = "the iterates diverge: a %s is not finite; ending unconverged at the last finite one"

# A gain goes to band storage unless its band, under its elimination
# order, would hold more than this many times the gain's stored entries.
# A meshed lattice's band holds 3-21 times them up to 10 000 buses; a
# radial feeder's bandwidth is nearly n, and its band 86 (1 023 buses)
# to 342 (4 095 buses) times, where SuperLU's fill-reducing ordering is
# far cheaper (BENCH_gain_factor.json).
_BAND_LIMIT = 32


@dataclass
class SolverConfig:
    max_iterations: int = 50
    step_tolerance: float = 1e-8
    linear_system_method: str = NORMAL

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InputError("invalid solver configuration: max_iterations must be >= 1")
        if not 0.0 < self.step_tolerance < math.inf:
            raise InputError("invalid solver configuration: step_tolerance must be "
                             "finite and > 0")
        if self.linear_system_method not in (NORMAL, ORTHOGONAL):
            raise InputError("invalid solver configuration: linear_system_method must "
                             f"be {NORMAL!r} or {ORTHOGONAL!r}")


@dataclass
class EstimationResult:
    """Solution plus convergence diagnostics.

    x_hat is the full StateVector in the formulation's coordinates.
    iterations counts the Gauss-Newton updates larger than the step
    tolerance; the final sub-tolerance increment is applied but not
    counted.  Under the normal method a nonlinear problem usually takes
    that increment from the factor of the iterate before (see
    gauss_newton).  A constant-Jacobian model takes a single step, so
    from a start off the solution it reports exactly one iteration.
    """
    x_hat: StateVector
    converged: bool
    iterations: int
    objective_trace: list = field(default_factory=list)
    max_step_trace: list = field(default_factory=list)
    residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))


@dataclass
class GainSystem:
    """One linearization of the WLS problem: rows, covariance, residuals.

    j spans the solved (slack-eliminated) unknowns.  Rows outside the
    optional active mask are left out of the solve: the normal path
    gives them zero weight in R^-1, the orthogonal path drops them from
    the whitened rows before QR.  A mask that cuts a correlated block
    is an InputError.  Observable problems yield a symmetric positive
    definite gain matrix j^T R^-1 j; a failed factorization surfaces as
    SingularGain, which names the weak unknown by ``name_of(k)`` when
    that is given.  A kernel problem's iterate may carry the
    second-order term S of its curved rows (``curvature``): it then
    solves (G - S) dx = j^T R^-1 r, or the plain system where
    ``_Curvature.step`` refuses that step.  The normal path factors G
    under ``narrow_order`` of G's own graph; a problem's iterate runs on
    its layout's gain plan instead (``_ProblemGain``).
    """
    j: object
    covariance: CovarianceModel
    r: np.ndarray
    active: np.ndarray | None = None
    name_of: Callable[[int], str] | None = None
    curvature: _Curvature | None = None

    def solve(self, method: str = NORMAL) -> np.ndarray:
        """Least-squares solution dx of j dx = r weighted by R^-1."""
        active = self.active
        if active is not None and active.all():
            active = None
        if method == ORTHOGONAL:
            w = self.covariance.whitener()
            aw, bw = w @ self.j, w @ self.r
            if active is not None:
                _kept_entries(w, active)
                aw, bw = aw[active], bw[active]
            y = None if self.curvature is None else self._weights(active) @ self.r
            return _solve_orthogonal(aw, bw, self.curvature, y)
        return self._normal(self._weights(active))

    def _weights(self, active):
        """R^-1 with the entries of rows outside active zero."""
        rinv = self.covariance.inverse()
        if active is not None:
            rinv = csr_matrix((np.where(_kept_entries(rinv, active), rinv.data, 0.0),
                               rinv.indices, rinv.indptr), shape=rinv.shape)
        return rinv

    def _normal(self, rinv):
        return _solve_normal(self.j, rinv, self.r, self.name_of)


class _ProblemGain(GainSystem):
    """The normal-method GainSystem of a problem's iterate; j spans all
    columns.  Its solve runs on its layout's gain plan, built under the
    layout's order, with the factor the problem keeps
    (``_GainPlan.solve``)."""

    def __init__(self, problem: EstimationProblem, j, r: np.ndarray,
                 active: np.ndarray, curvature: _Curvature | None = None,
                 tolerance: float | None = None):
        super().__init__(j, problem.covariance, r, active, problem.unknown_name, curvature)
        self.problem = problem
        self.tolerance = tolerance

    def _weights(self, active):
        held = self.problem._held
        if held is not None and np.array_equal(active, held):
            active = None  # R^-1 gives the rows the set lacks no weight already
        return super()._weights(active)

    def _normal(self, rinv):
        problem = self.problem
        plan = problem._layout.gain_plan(problem.net)
        return plan.solve(problem, self.j, rinv, self.r, self.curvature,
                          tolerance=self.tolerance)


class _CurvedPattern(NamedTuple):
    """The kernel's curvature pattern on the solved unknowns: the
    positions ``kept`` in the kernel's pattern of the entries whose two
    columns are both solved, their rows, their solved columns k and l,
    and ``half``, 1/2 where k = l and 1 elsewhere.  One triangle of each
    row's Hessian, as the kernel lists it, so S = H + H^T with H the
    entries times ``half``, duplicates summed."""
    kept: np.ndarray
    row: np.ndarray
    k: np.ndarray
    l: np.ndarray
    half: np.ndarray


class _Curvature:
    """The second-order term of an iterate's curved rows (the kernel's
    current magnitudes) at the state x: S = sum_i y_i hess h_i(x) over
    the solved unknowns, with y = R^-1 r and the entries of inactive rows
    of R^-1 zero.  Its entries s lie on the layout's curvature pattern
    (``_Layout.curved``); the Hessian is evaluated by the solve that asks
    for them."""

    def __init__(self, problem: EstimationProblem, x: StateVector):
        self.kernel, self.x, self.n = problem.kernel, x, problem.n
        self.pattern = problem._layout.curved

    def matrix(self, s: np.ndarray) -> csc_matrix:
        """S from its entries s."""
        p = self.pattern
        h = csc_matrix((s * p.half, (p.k, p.l)), shape=(self.n, self.n))
        return h + h.T

    def dense(self, s: np.ndarray) -> np.ndarray:
        """S from its entries s, as a dense array."""
        p, n = self.pattern, self.n
        h = np.bincount(p.k * n + p.l, s * p.half, minlength=n * n).reshape(n, n)
        return h + h.T

    def step(self, y: np.ndarray, rhs: np.ndarray, solve) -> np.ndarray | None:
        """Newton's step dx of (G - S) dx = rhs, given y and ``solve``,
        which factors G - S from S's entries and solves.  None, logged at
        DEBUG, where the factor refuses G - S or where along dx the term
        takes more than half of the gain, dx^T S dx > dx^T (G - S) dx =
        dx^T rhs: that far from the Gauss-Newton model the step can run
        away, as it does from a start whose current rows miss by
        thousands of sigmas."""
        p = self.pattern
        s = y[p.row] * self.kernel.curvature(self.x)[p.kept]
        try:
            dx = solve(s)
        except SingularGain as exc:
            log.debug(_REFUSED, exc)
            return None
        along, left = 2.0 * (s * p.half) @ (dx[p.k] * dx[p.l]), dx @ rhs
        if along > left:
            log.debug(_REFUSED, f"along its step it takes {along / (along + left):.3g} "
                      "of the gain")
            return None
        return dx


def _wrapped(r: np.ndarray, angle_rows: np.ndarray) -> np.ndarray:
    """Residuals r with the angle rows wrapped to the principal branch."""
    if angle_rows.any():
        r[angle_rows] = wrap_angles(r[angle_rows])
    return r


def _kept_entries(m: csr_matrix, active: np.ndarray) -> np.ndarray:
    """Per stored entry of R^-1 or the whitener, whether its row is
    active.  An entry joining an active row to an inactive one means
    the mask cuts a correlated block, an InputError."""
    kept = np.repeat(active, np.diff(m.indptr))
    if (kept != active[m.indices]).any():
        raise InputError("cannot split a correlated covariance block")
    return kept


def _read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False


def _row_keys(codes: np.ndarray, at: np.ndarray, n_buses: int) -> np.ndarray:
    """One integer per row for its location and kind code, in that
    order, so that the rows of a plan listed by location come sorted; a
    location outside 0..n_buses may share another row's key."""
    return (at[:, 0] * (n_buses + 1) + at[:, 1]) * len(KINDS) + codes


# A set may leave out at most this share of its layout's rows and still
# share the layout's analysis.  Each row it leaves out is still
# evaluated, paired and summed with zero weight in every iterate, while
# a fresh analysis of fewer rows costs less.  On the 20 x 20
# conventional lattice (3 609 rows, 2 vCPU, one BLAS thread; medians of
# 80 estimates of 40 sets, each on the whole plan's analysis and on its
# own) the shared analysis saved 2.1-2.3 ms per estimate with 14 of the
# 796 current magnitude rows left out, 0.9-1.2 ms with 400-450, 0.6 ms
# with 600 and 0.3 ms with all 796: ~2.5 us less per absent row, so it
# stops paying at about a quarter of the rows.  An eighth keeps about
# half the saving.
_ABSENT_SHARE = 0.125


class _Layout:
    """The analysis of one measurement layout on one network under one
    formulation: what the layout determines, worked out once.  A set's
    values, variances and covariances, and so R^-1 and every gain's
    numbers, are never held here, with one exception: a kernel layout's
    flat start.  It holds the kernel's rows there (``flat_rows``), which
    the layout alone decides, and, where its weights can repeat
    (``_repeats``), the factor of its last flat-start gain that passed
    the pivot test with the weights it was taken under (``_flat_factor``,
    see ``_GainPlan.solve``).  Weights repeat unless the layout has
    rectangular PMU rows, whose variances are converted from polar ones
    at the measured values.  That factor is one band beyond the plan,
    n(kd + 1) doubles: 0.55 MB on the 20 x 20 lattice and 65 MB for the
    10 000-bus conventional gain (kd = 405).  It stays alive beside each
    later iterate's own band, so by tracemalloc the first conventional
    estimate on a network peaks at 5.6 MiB instead of 4.8 there, and at
    242 MiB instead of 173 on the 10 000-bus lattice; a later estimate
    of the layout, which takes the factor, peaks as before (1.6 and
    89 MiB).

    The layout is the key ``holds`` compares: the set's kind codes, its
    locations, its correlated row pairs, and whether the phasor
    covariance is neglected.  The analysis checks the kinds against the
    formulation and the locations against the network, then holds the
    solved (slack-eliminated) columns ``free``, R^-1's pattern
    (``inverse_pattern``, whose build checks that no row is in two
    correlated pairs) and the compiled rows: a polar-state formulation's
    MeasurementKernel, or the constant H of DC and linear_rect
    (``h_matrix``).  The first call that needs them builds the rest: the
    elimination order of the solved unknowns (``order``), a kernel
    layout's curvature pattern (``curved``) and the gain plan
    (``gain_plan``), which folds a constant H's values and keeps its
    free columns.  Its arrays are read-only, so
    every problem of the layout shares them.  Analysing a sparsity pattern
    once and computing numbers on it many times is the classic split of
    sparse factorization (George & Liu, Computer Solution of Large
    Sparse Positive Definite Systems, 1981).

    The analysis also serves a set that holds only some of its rows
    (``place``), as SCADA scans whose telemetry comes and goes do: the
    rows the set lacks are held inactive with zero weight, which every
    solve of the layout takes as it takes a row dropped for one iterate.
    That gives the set's own bits only where its rows keep their order
    and their pairs, and alone reach the plan's half-bandwidth and its
    band-or-SuperLU decision.  A set that brings rows the layout lacks
    is analysed with them (``union``).
    """

    def __init__(self, net: NetworkModel, mset: MeasurementSet,
                 formulation: Formulation, neglect: bool = False):
        facts = _FACTS[formulation]
        banned = ~facts.admissible[mset.codes]
        if banned.any():
            raise UnsupportedKind(f"{KINDS[mset.codes[np.argmax(banned)]]} is not "
                                  f"admissible in the {formulation} formulation")
        mset.validate_against(net)
        rect = facts.coordinates == RECTANGULAR
        if rect and net.slack_angle != 0.0:
            raise InputError(
                "the rectangular-state formulation anchors the slack "
                "imaginary part and needs a zero slack angle")
        self.codes, self.at, self.pairs, self.neglect = mset.codes, mset.at, mset.pairs, neglect
        a, b = np.ascontiguousarray((mset.pairs[:0] if neglect else mset.pairs).T, np.intp)
        self.inverse_pattern = InversePattern(mset.codes.size, a, b)
        self.n_buses = n = net.n_buses
        self.halves = len(facts.halves)
        self.full_dim = n * self.halves
        # The slack angle is pinned, or in a rectangular state the
        # slack's imaginary part.
        self.fixed_index = net.slack_bus - 1 + (n if rect else 0)
        self.free = np.delete(np.arange(self.full_dim), self.fixed_index)
        self.angle_rows = IS_ANGLE[mset.codes]
        _read_only(self.free, self.angle_rows)
        self.kernel = self.h_matrix = None
        if facts.family == _KERNEL:
            self.kernel = MeasurementKernel(net, mset.locations(net))
        else:
            rows = dc_rows if facts.family == _DC else linear_rows_rectstate
            self.h_matrix = h = rows(net, mset)
            _read_only(h.data, h.indices, h.indptr)
        self._order = self._plan = None
        # a kernel layout's flat start and its rows there, and the factor
        # of its last flat-start gain with the weights it was taken under
        self._flat = self._flat_rows = self._flat_factor = None
        self._repeats = False
        if self.kernel is not None:
            self._flat = StateVector.flat(n, net.slack_bus, net.slack_angle)
            _read_only(self._flat.values)
            self._repeats = not IS_RECT[mset.codes].any()

    def holds(self, mset: MeasurementSet, neglect: bool) -> bool:
        """Whether the set, with its phasor covariance neglected or not,
        has this layout."""
        return (neglect == self.neglect and np.array_equal(mset.codes, self.codes)
                and np.array_equal(mset.at, self.at) and np.array_equal(mset.pairs, self.pairs))

    @cached_property
    def _keys(self):
        """The layout's row keys (``_row_keys``) sorted, with the row of
        each; None where two rows share a kind and location."""
        keys = _row_keys(self.codes, self.at, self.n_buses)
        rows = np.argsort(keys, kind="stable")
        keys = keys[rows]
        return None if (keys[1:] == keys[:-1]).any() else (keys, rows)

    def _common(self, mset: MeasurementSet, neglect: bool) -> np.ndarray | None:
        """The layout's row of each row of the set, -1 where it has none
        of that kind and location; None where the neglect flag differs,
        where two of the layout's rows share a kind and location, where a
        location of the set lies outside the network (its own analysis
        names it), or where the rows the set has in common with the
        layout are out of the layout's order or repeated."""
        if (neglect != self.neglect or self._keys is None or mset.at.min(initial=0) < 0
                or mset.at.max(initial=0) > self.n_buses):
            return None
        keys, rows = self._keys
        want = _row_keys(mset.codes, mset.at, self.n_buses)
        k = np.minimum(np.searchsorted(keys, want), keys.size - 1)
        pos = np.where(keys[k] == want, rows[k], -1)
        return None if (np.diff(pos[pos >= 0]) <= 0).any() else pos

    def place(self, net: NetworkModel, mset: MeasurementSet,
              neglect: bool) -> np.ndarray | None:
        """The layout's rows of the set's rows, in the set's order, where
        this analysis can serve a set that lacks some of its rows; None
        where the set needs an analysis of its own.

        It serves the set under the same neglect flag where every row of
        the set is a row of the layout, in the same relative order (so
        no row is repeated), with at most ``_ABSENT_SHARE`` of the
        layout's rows absent; where the layout's correlated pairs on the
        set's rows are the set's pairs, in order, and no pair has one
        row absent; and where the set's rows alone would make the gain
        plan's half-bandwidth and band-or-SuperLU decision (``_serves``),
        which builds the plan."""
        pos = self._common(mset, neglect)
        m = self.codes.size
        if pos is None or (pos < 0).any() or m - pos.size > _ABSENT_SHARE * m:
            return None
        held = np.zeros(m, dtype=bool)
        held[pos] = True
        # a pair cut by an absent row is one the set cannot have
        touched = held[self.pairs].any(axis=1)
        if (not np.array_equal(pos[mset.pairs], self.pairs[touched])
                or not self._serves(net, held)):
            return None
        _read_only(pos)
        return pos

    def _serves(self, net: NetworkModel, held: np.ndarray) -> bool:
        """Whether the gain plan gives a set that holds only the rows
        ``held`` the bits of a plan of its own.  Rows of zero weight add
        only zero terms to the plan's sums, so that is where the held
        rows alone reach the plan's half-bandwidth kd, the width of its
        band storage, and make its band-or-SuperLU decision
        (``_band_fits``).  A SuperLU plan's gain is formed by sparse
        products, which drop the zero products.  A band plan keeps its
        decision where the held rows' entries of G fill enough of the
        band: losing a row loses at most its pairs' entries of G's upper
        triangle (``_GainPlan``'s per-row bound), each at most two stored
        entries."""
        plan = self.gain_plan(net)
        kd = int(plan._reach.max(initial=0))
        if int(plan._reach[held].max(initial=0)) < kd:
            return False
        return plan._perm is None or _band_fits(plan._n, kd,
                                               plan._nnz - 2 * int(plan._pairs[~held].sum()))

    def union(self, mset: MeasurementSet, neglect: bool) -> MeasurementSet | None:
        """The layout's rows and the rows the set brings, as a set of
        placeholder values (0, variance 1) whose analysis can serve both.
        None unless the set brings rows and lacks some, under the same
        neglect flag, has its rows in common with the layout in the
        layout's order, and lacks at most ``_ABSENT_SHARE`` of the
        union's rows.  The union keeps both sets' orders.  Its pairs are
        both sets' pairs, in the order of their first rows; where a row
        is in two of them, None."""
        pos = self._common(mset, neglect)
        if pos is None:
            return None
        new = pos < 0
        common = pos[~new]
        m = self.codes.size
        if (not new.any() or common.size == m
                or m - common.size > _ABSENT_SHARE * (m + np.count_nonzero(new))):
            return None
        in_common = np.zeros(m, dtype=bool)
        in_common[common] = True
        # Rows between two common rows (a gap) come from one set or the
        # other.  A new row goes among the layout's rows of its gap after
        # those of a smaller location, bus ids then kind code, as a plan
        # that lists its rows by location would hold them; a new row
        # never precedes the one before it in the set.
        gap, gap_new = np.cumsum(in_common), np.cumsum(~new)[new]
        codes = np.concatenate([self.codes, mset.codes[new]])
        at = np.vstack([self.at, mset.at[new]])
        rank = np.unique(_row_keys(codes, at, self.n_buses), return_inverse=True)[1]
        span = int(rank.max()) + 1
        only = np.sort((gap * span + rank[:m])[~in_common])
        before = (np.searchsorted(only, gap_new * span + rank[m:])
                  - np.searchsorted(only, gap_new * span))
        before = np.maximum.accumulate(gap_new * (m + 1) + before) - gap_new * (m + 1)
        # positions within a gap: a layout row's own, a new row's between two
        first = np.arange(m) - np.searchsorted(gap, gap)
        slot = np.concatenate([2 * first, 2 * (before + (gap_new > 0)) - 1])
        order = np.lexsort((np.arange(slot.size), slot, np.concatenate([gap, gap_new])))
        where = np.empty(slot.size, dtype=np.intp)
        where[order] = np.arange(slot.size)
        rows = np.empty(pos.size, dtype=np.intp)  # the set's rows in the union
        rows[~new], rows[new] = where[common], where[m:]
        pairs = np.concatenate([where[self.pairs], rows[mset.pairs]])
        _, once = np.unique(pairs[:, 0] * slot.size + pairs[:, 1], return_index=True)
        pairs = pairs[np.sort(once)]
        pairs = pairs[np.argsort(pairs[:, 0], kind="stable")]
        ends = np.sort(pairs.ravel())
        if (ends[1:] == ends[:-1]).any():
            return None
        return MeasurementSet.from_columns(codes[order], at[order], np.zeros(slot.size),
                                           np.ones(slot.size), pairs, np.zeros(len(pairs)))

    def order(self, net: NetworkModel) -> np.ndarray:
        """The elimination order of the solved unknowns for a banded gain
        on net, the layout's network: ``unknown_order`` of its bus order
        (``NetworkModel.bus_order``), built on the first call.  Unknown
        order[k] takes position k."""
        if self._order is None:
            self._order = self.unknown_order(net.bus_order)
            _read_only(self._order)
        return self._order

    def unknown_order(self, bus_order: np.ndarray) -> np.ndarray:
        """The solved unknowns in the order of the 0-based buses
        bus_order: each bus's halves side by side, the fixed column
        dropped."""
        full = (bus_order[:, None] + self.n_buses * np.arange(self.halves)).ravel()
        full = full[full != self.fixed_index]
        return full - (full > self.fixed_index)

    @cached_property
    def curved(self) -> _CurvedPattern:
        """The kernel's curvature pattern on the solved unknowns."""
        row, a, b = self.kernel.curvature_pattern
        column = np.full(self.full_dim, -1, dtype=np.intp)
        column[self.free] = np.arange(self.free.size)
        k, l = column[a], column[b]
        kept = np.flatnonzero((k >= 0) & (l >= 0))
        k, l = k[kept], l[kept]
        curved = _CurvedPattern(kept, row[kept], k, l, np.where(k == l, 0.5, 1.0))
        _read_only(*curved)
        return curved

    def flat_rows(self, x: StateVector):
        """A kernel layout's (h, J, active) at its network's flat start,
        evaluated there by the first call and read-only, where x is that
        start; else None."""
        if self._flat is None or not np.array_equal(x.values, self._flat.values):
            return None
        if self._flat_rows is None:
            self._flat_rows = h, j, active = self.kernel.rows(self._flat)
            _read_only(h, j.data, active)
        return self._flat_rows

    def gain_plan(self, net: NetworkModel) -> _GainPlan:
        """The gain plan of the layout's iterates on net, its network,
        under the layout's order: built by the first call, since the rows
        fix J's pattern and the correlated pairs R^-1's.  A DC or
        linear_rect layout (``kernel`` None), whose J is the constant H,
        gets a plan that folds H's values."""
        if self._plan is None:
            if self.kernel is None:
                j, curved = self.h_matrix, None
            else:  # J's pattern; a kernel plan reads no values of it
                kernel = self.kernel
                j = csr_matrix((np.zeros(kernel.indices.size), kernel.indices, kernel.indptr),
                               shape=(kernel.m, kernel.n_columns))
                curved = self.curved
            self._plan = _GainPlan(j, self.free, self.inverse_pattern, curved, self.order(net))
        return self._plan


class EstimationProblem:
    """A measurement set bound to a network under one formulation.

    Exposes h(x), the Jacobian rows, wrapped residuals, and the free
    (slack-eliminated) column set that the solvers work with.  The
    formulation's row family (``_FACTS``) decides the rows: the
    polar-state formulations compile them into a MeasurementKernel; DC
    and linear_rect keep a constant h_matrix.  The rows, like all that
    the set's layout decides, come from the layout analysis ``layout``
    (``_Layout``), which ``assemble_problem`` takes from the network.
    The problem holds the numbers of one estimate: z, the covariance,
    on the layout's pattern of R^-1 (``_Layout.inverse_pattern``), which
    the layout's gain plan assumes, and the factor its last
    normal solve kept (see gauss_newton).

    A set may hold only some of its layout's rows (``_Layout.place``).
    Its linearization then spans the layout's rows: ``rows`` gives h, J
    and the active mask over them, with the rows the set lacks inactive,
    and the covariance (``_HeldCovariance``), like ``kernel`` and
    ``h_matrix``, spans them too, giving those rows no weight.  What the
    set is measured by keeps its own rows and order: ``m``, ``z``,
    ``values``, ``residuals`` and the objective.
    """

    def __init__(self, net: NetworkModel, mset: MeasurementSet,
                 formulation: Formulation, covariance: CovarianceModel,
                 layout: _Layout):
        self.net = net
        self.mset = mset
        self.formulation = formulation
        self.covariance = covariance
        self._layout = layout
        self._facts = _FACTS[formulation]
        self.z = mset.values()
        # the set's rows among the layout's, None where it holds them all
        self._rows = self._held = None
        if isinstance(covariance, _HeldCovariance):
            self._rows, self._held = covariance.rows, covariance.held
        self._absent = 0 if self._rows is None else self._held.size - self._rows.size
        # z and the angle rows over the layout's rows, and the set's angle rows
        self._z, self._angle_rows = self._spread(self.z), layout.angle_rows
        self._angles = self._take(layout.angle_rows)
        self.full_dim, self.fixed_index = layout.full_dim, layout.fixed_index
        self.fixed_value = 0.0 if self._facts.coordinates == RECTANGULAR else net.slack_angle
        self.free_indices = layout.free
        self.kernel, self.h_matrix = layout.kernel, layout.h_matrix
        self._kept = None  # (solve, weights) of the last factor (_GainPlan.solve)

    @property
    def m(self) -> int:
        """Number of the set's rows."""
        return len(self.mset)

    @property
    def n(self) -> int:
        """Number of solved unknowns (slack eliminated)."""
        return self.full_dim - 1

    @property
    def is_linear(self) -> bool:
        return self.h_matrix is not None

    def unknown_name(self, k: int) -> str:
        """The bus and component of solved unknown k (a slack-eliminated
        position): theta or V in polar states, Re V or Im V in
        rectangular ones, theta for DC."""
        n = self.net.n_buses
        column = int(self.free_indices[k])
        return f"{self._facts.halves[column // n]} at bus {column % n + 1}"

    def initial_state(self) -> StateVector:
        """Flat start in the formulation's coordinates."""
        return StateVector.flat(self.net.n_buses, self.net.slack_bus,
                                self.fixed_value, self._facts.coordinates)

    @property
    def order(self) -> np.ndarray:
        """The elimination order of the solved unknowns for a banded
        gain, the layout's (``_Layout.order``): read-only, and it cannot
        be set.  Unknown order[k] takes position k."""
        return self._layout.order(self.net)

    def values(self, x: StateVector) -> np.ndarray:
        """h(x) for every row of the set, in measurement order: one
        kernel call without the Jacobian, or H @ x for a
        constant-Jacobian problem.  Never raises on flat-singular
        currents."""
        return self._take(self._h(x))

    def _h(self, x: StateVector) -> np.ndarray:
        """h(x) over the layout's rows."""
        if self.is_linear:
            return self.h_matrix @ x.values[:self.full_dim]
        return self.kernel.values(x)

    def residuals(self, x: StateVector) -> np.ndarray:
        """z - h(x) for every row of the set, with angle rows wrapped to
        the principal branch."""
        return _wrapped(self.z - self.values(x), self._angles)

    def _residuals_of(self, h: np.ndarray) -> np.ndarray:
        """z - h, wrapped, for h over the layout's rows."""
        return _wrapped(self._z - h, self._angle_rows)

    def _take(self, v: np.ndarray) -> np.ndarray:
        """The set's entries of v, over the layout's rows."""
        return v if self._rows is None else v[self._rows]

    def _spread(self, v: np.ndarray) -> np.ndarray:
        """v, over the set's rows, over the layout's, 0 where the set
        has no row."""
        if self._rows is None:
            return v
        spread = np.zeros(self._held.size)
        spread[self._rows] = v
        return spread

    def rows(self, x: StateVector):
        """(h, J, active) for one Gauss-Newton iteration, over the
        layout's rows.

        J spans the full column set.  A constant-Jacobian problem returns
        its fixed H with every row active; otherwise one kernel call
        fills h and the data of J on the problem's fixed CSR pattern.
        At the flat start a kernel problem returns its layout's h and J
        there instead, read-only (``_Layout.flat_rows``), with a copy of
        their active mask.
        Rows whose partials are undefined at x (flat-start current
        singularities) come back inactive, with their value filled in
        and zero partials, as do the layout's rows that the set lacks.
        """
        if self.is_linear:
            h, j = self._h(x), self.h_matrix
            active = np.ones(j.shape[0], dtype=bool)
        elif (flat := self._layout.flat_rows(x)) is not None:
            h, j, active = flat[0], flat[1], flat[2].copy()
        else:
            h, j, active = self.kernel.rows(x)
        if self._held is not None:
            active &= self._held
        return h, j, active

    def _gain_system(self, j, r: np.ndarray, active: np.ndarray,
                     method: str, x: StateVector | None = None,
                     tolerance: float | None = None) -> GainSystem:
        """The gain system of one iterate whose J spans all columns.  The
        normal method solves it as the problem's (``_ProblemGain``), on
        its layout's gain plan, which first tries the kept factor given
        a ``tolerance`` (``_GainPlan.solve``).  The
        orthogonal method gets a GainSystem over J's free columns.  Given
        the iterate's state x, a kernel problem with curved rows gets
        their second-order term."""
        curvature = None
        if x is not None and self.kernel is not None and self._layout.curved.kept.size:
            curvature = _Curvature(self, x)
        if method == NORMAL:
            return _ProblemGain(self, j, r, active, curvature, tolerance)
        return GainSystem(j[:, self.free_indices], self.covariance, r, active,
                          self.unknown_name, curvature)


def assemble_problem(net: NetworkModel, mset: MeasurementSet,
                     formulation: Formulation, *,
                     neglect_phasor_covariance: bool = False) -> EstimationProblem:
    """Bind a network and measurement set under a formulation.

    Rejects measurement kinds outside the formulation's family and
    empty sets; builds the covariance as a diagonal of the recorded
    variances, keeping the 2x2 rectangular-phasor blocks unless they
    are explicitly neglected, on the layout's pattern of R^-1.

    The network keeps its last layout analysis per formulation
    (``_Layout``).  A set with that analysis's kind codes, locations and
    correlated pairs, under the same neglect_phasor_covariance, reuses
    it, checks included.  So does a set that holds only some of its
    rows, where the analysis can give it the bits of its own
    (``_Layout.place``): the problem then holds the rows it lacks
    inactive, with zero weight.  A set that brings rows the analysis
    lacks gets one new analysis of both sets' rows (``_Layout.union``),
    which then serves sets like either; any other set gets its own.  The
    old analysis is released before a new one is built, keeping only its
    row columns for the union.
    """
    formulation = Formulation(formulation)
    if len(mset) == 0:
        raise EmptyMeasurementSet("cannot estimate from an empty measurement set")
    neglect = neglect_phasor_covariance
    layout, rows = net.layouts.get(formulation), None
    if layout is not None and not layout.holds(mset, neglect):
        rows = layout.place(net, mset, neglect)
        if rows is None:
            union = layout.union(mset, neglect)
            layout = net.layouts[formulation] = None  # released before the new one is built
            if union is not None:
                layout = net.layouts[formulation] = _Layout(net, union, formulation, neglect)
                rows = layout.place(net, mset, neglect)
                if rows is None:
                    layout = net.layouts[formulation] = None
    if layout is None:
        layout = net.layouts[formulation] = _Layout(net, mset, formulation, neglect)
    covs = mset.covs[:0] if neglect else mset.covs
    if rows is None:
        covariance = CovarianceModel.on_pattern(layout.inverse_pattern, mset.variances(), covs)
    else:
        covariance = _HeldCovariance(layout.inverse_pattern, rows, mset.variances(), covs)
    return EstimationProblem(net, mset, formulation, covariance, layout)


class _HeldCovariance(CovarianceModel):
    """The covariance of a set over its layout's rows, for a set that
    holds only the rows ``rows`` of them (``held``, as a mask): the
    set's variances and blocks there.  At the rows it lacks, variance 1
    and no covariance stand in, and R^-1 holds zeros, so those rows
    weigh nothing.  The whitener keeps them: the problem's rows hold
    them inactive, and the orthogonal path drops every inactive row.
    The numbers are checked on the set's own rows first, so a refused
    block is named by the set's rows."""

    def __init__(self, pattern: InversePattern, rows: np.ndarray,
                 variances: np.ndarray, covs: np.ndarray):
        held = np.zeros(pattern.m, dtype=bool)
        held[rows] = True
        blocks = held[pattern.a]
        self._fill(variances, np.searchsorted(rows, pattern.a[blocks]),
                   np.searchsorted(rows, pattern.b[blocks]), covs)
        stand_in = np.ones(pattern.m)
        stand_in[rows] = variances
        cov = np.zeros(pattern.a.size)
        cov[blocks] = covs
        self._fill(stand_in, pattern.a, pattern.b, cov)
        self.pattern, self.rows, self.held = pattern, rows, held

    def inverse(self) -> csr_matrix:
        built = self._inverse is not None
        rinv = super().inverse()
        if not built:  # the rows the set lacks weigh nothing
            rinv.data[~np.repeat(self.held, np.diff(rinv.indptr))] = 0.0
        return rinv


def _quadratic(problem: EstimationProblem, rinv, r: np.ndarray) -> float:
    """r^T R^-1 r over the set's rows, given r over the layout's rows;
    inf or nan where it leaves the floating-point range, which
    ``gauss_newton`` reports as divergence."""
    y = rinv @ r
    if problem._rows is not None:
        r, y = r[problem._rows], y[problem._rows]
    with np.errstate(over="ignore", invalid="ignore"):
        return float(r @ y)


def objective(problem: EstimationProblem, x: StateVector) -> float:
    """WLS objective r^T R^-1 r at a state (all of the set's rows,
    wrapped angles)."""
    return _quadratic(problem, problem.covariance.inverse(),
                      problem._spread(problem.residuals(x)))


def _solve_normal(a, rinv, r, name_of=None, order=None):
    """Solve (A^T R^-1 A) dx = A^T R^-1 r through a factor of the gain
    formed by sparse products (the product path), under the elimination
    order ``order``, else ``narrow_order`` of the gain's own graph."""
    g = csc_matrix(a.T @ rinv @ a)
    if order is None:
        order = narrow_order(g)
    return _factor_gain(g, order, name_of)(a.T @ (rinv @ r))


def _band_fits(n: int, kd: int, nnz: int) -> bool:
    """Whether a gain of n unknowns and nnz stored entries goes to band
    storage under an order that gives it the half-bandwidth kd: it has
    entries, and its band holds at most ``_BAND_LIMIT`` times them."""
    return 0 < n * (kd + 1) <= _BAND_LIMIT * nnz


def _factor_gain(g: csc_matrix, perm: np.ndarray,
                 name_of=None) -> Callable[[np.ndarray], np.ndarray]:
    """Factor the gain g under the elimination order perm (unknown
    perm[k] at position k); returns the solve of G dx = b.  G goes to
    lower band storage where it fits (``_band_fits``), filled straight
    from its entries G[i, j], i <= j, and factored by ``_factor_band``;
    where it does not, as on a radial feeder whose bandwidth is nearly
    n, it is factored by ``_factor_lu``."""
    n = g.shape[0]
    where = np.empty(n, dtype=np.intp)
    where[perm] = np.arange(n)
    rows = where[g.indices]
    cols = np.repeat(where, np.diff(g.indptr))
    kd = int((cols - rows).max(initial=0))
    if not _band_fits(n, kd, g.nnz):
        return _factor_lu(g, name_of)
    upper = rows <= cols
    ab = np.zeros((n, kd + 1))
    ab.ravel()[_band_slot(rows[upper], cols[upper], kd)] = g.data[upper]
    return _factor_band(ab, np.asarray(perm, dtype=np.intp), name_of)


def _band_slot(rows, cols, kd):
    """Flat position of permuted G[rows, cols], rows <= cols, in LAPACK's
    lower band storage ab[i, j - i] = G[j, i] = G[i, j], ab of shape
    (n, kd + 1): ab.T is the (kd + 1) x n Fortran array dpbtrf takes.
    Lower, not upper: dpbtrf factors a gain faster in it (``_factor_band``)."""
    return rows * kd + cols


def _factor_band(ab: np.ndarray, perm: np.ndarray,
                 name_of=None) -> Callable[[np.ndarray], np.ndarray]:
    """Factor the gain permuted by perm, held in lower band storage ab
    (``_band_slot``), by LAPACK's banded Cholesky (dpbtrf) in place;
    returns the solve.  Lower storage, because dpbtrf's lower variant
    took 0.71 of the upper's time on the pmu_lattice gain (n = 7 199,
    kd = 123; OpenBLAS 0.3.31, one thread).

    The factor is refused when a pivot (the square of a diagonal entry
    of the Cholesky factor) is not above n * eps times the diagonal
    entry of G it was reduced from, or is not positive at all (dpbtrf
    stops there): below that bound the pivot is rounding noise and its
    unknown is numerically dependent on the ones eliminated before it.
    Measuring each pivot against its own diagonal, not against the
    largest pivot, keeps the test invariant under a rescaling of the
    unknowns (G -> D G D).  The SingularGain names the first weak
    unknown in elimination order by ``name_of(k)``, else by its column k.
    """
    n = ab.shape[0]
    diag = ab[:, 0].copy()
    u, info = dpbtrf(ab.T, lower=1, overwrite_ab=1)
    pivots = u[0] ** 2
    if info > 0:  # dpbtrf stopped at this pivot, which is not positive
        pivots[info - 1] = min(u[0, info - 1], 0.0)
    weak = ~(pivots > n * np.finfo(float).eps * diag)
    if weak.any():
        k = int(np.argmax(weak))
        _refuse(pivots[k], int(perm[k]), diag[k], name_of)

    def solve(b):
        x = np.empty(n)
        x[perm] = dpbtrs(u, b[perm], lower=1, overwrite_b=1)[0]
        return x
    return solve


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[e], ..., starts[e] + counts[e] - 1, one after
    the other."""
    out = np.repeat(starts - np.cumsum(counts) + counts, counts)
    out += np.arange(out.size)
    return out


class _GainPlan:
    """The symbolic half of a layout's normal-method gain solve.

    The layout fixes J's CSR pattern (the kernel's, or the constant H's)
    and R^-1's (the correlated pairs', ``_Layout.inverse_pattern``), so
    every G = A^T R^-1 A (A: J's free columns) of every problem of the
    layout has one structural pattern, the entries that can be nonzero
    whatever the values of J and the weights.  Given the layout's
    elimination order (``_Layout.order``), the plan pairs A's entries
    once, in J's storage order (George & Liu 1981).  Each stored entry
    (i, i') of R^-1 leads with every A entry (i, k) of row i.  On the
    diagonal of R^-1 (i' = i) the lead's partners are the rest of its
    row, itself included; for an entry of a 2x2 block they are the A
    entries (i', l) of row i' at or right of k in the band.  So each
    product of G's band entries G[k, l], k <= l, comes from one pair,
    and a pair's slot in lower band storage (``_band_slot``) is that of
    the min and the max of its two band positions.  Per row the
    plan keeps its reach, the widest distance its pairs span, and a bound
    on its pairs (``_reach``, ``_pairs``); kd is the widest reach.  With
    nnz(G), from the distinct slots (``_nnz``), they give the
    band-or-SuperLU decision (``_band_fits``) and tell ``_Layout.place``
    whether a set without some rows would make the same one.  A
    wide-profile gain goes to SuperLU, formed by sparse products each
    time, and the plan drops its pairs.

    A solve passes its weights, R^-1 with the entries of inactive rows
    zero, so the masked first iterate, an iterate that drops rows, a set
    that lacks some of the layout's rows and 2x2 blocks all run on the
    one plan, and factors its band by
    ``_factor_band``.  The plan of a kernel layout keeps its pairs and
    sums them into the band every iterate with one np.add.at, and the
    right-hand side with another.  A DC or linear_rect layout's J is
    its constant H (no curvature pattern is given), so each band
    entry of G is a fixed combination of R^-1's stored entries w,
    G[k, l] = sum over the pairs (i, k), (i', l) of H[i, k] H[i', l]
    w_ii'.  Its plan folds each pair's product of H entries into
    ``_fold``, a CSC matrix with a column per stored entry of R^-1 and a
    row per distinct band slot (``_slots``), and drops the pairs: an
    estimate's band is ``_fold @ w`` scattered to the slots.  Its
    right-hand side, and its gain where the band does not fit, are
    sparse products with H's free columns, transposed once (``_ht``).
    The two differ in their band fill and their right-hand side only.

    The second-order term S of an iterate's curved rows (``_Curvature``)
    lands only in slots that the row's own J^T J term fills, so a kernel
    plan also maps the layout's curvature pattern (``_CurvedPattern``)
    to band slots, and an iterate that carries S subtracts it there by
    np.subtract.at.  Where G - S is refused, the band is summed again
    for the Gauss-Newton step, as dpbtrf has overwritten it.

    Per lead a kernel plan keeps its J entry, its R^-1 entry and its
    count of partners, and per pair only the partner's J entry and the
    slot.  Gather and slot arrays are np.intp, which np.add.at and fancy
    indexing take without a conversion.  The plan holds no numbers that
    vary between problems: its arrays are read-only and its solve
    writes none of them, so the problems of one layout share it
    (``_Layout.gain_plan``).  Its sums run by np.add.at, which adds in
    np.bincount's order: np.bincount copies a read-only index array on
    every call, and on the 400-bus lattice that took an iterate's solve
    from ~1.5 to ~2.1 ms (numpy 2.4, 2 vCPU).
    """

    def __init__(self, j, free: np.ndarray, rinv, curved: _CurvedPattern | None,
                 order: np.ndarray):
        """The plan of J's pattern j (a CSR matrix over all columns) and
        R^-1's pattern rinv (its CSR indptr, indices and nnz), with the
        kernel's curvature pattern ``curved``, or None where j is a
        constant H, whose values the plan then folds."""
        m = j.shape[0]
        self._n = n = free.size
        self._free, self._perm = free, None  # None: SuperLU takes every gain
        self._fold = self._ht = self._nnz = None
        column = np.full(j.shape[1], -1, dtype=np.intp)
        column[free] = np.arange(n)
        col = column[j.indices]
        # A's entries, in J's storage order: their position in J's data,
        # row pointer, count per row, free column and band position
        a = np.flatnonzero(col >= 0)
        a_ptr = np.concatenate([[0], np.cumsum(col >= 0)])[j.indptr]
        a_count = np.diff(a_ptr)
        a_col = col[a]
        where = np.empty(n, dtype=np.intp)
        where[order] = np.arange(n)
        at = where[a_col]
        e_row = np.repeat(np.arange(m), np.diff(rinv.indptr))
        off = rinv.indices != e_row  # a 2x2 block's entries (i, i')
        # per row, its reach: the widest distance between the band
        # positions of the A entries that its pairs join, its own and its
        # block partner's; and a bound on its pairs.  kd is the widest reach.
        lo, hi = np.full(m, n), np.full(m, -1)
        some = a_count > 0
        if at.size:
            lo[some] = np.minimum.reduceat(at, a_ptr[:-1][some])
            hi[some] = np.maximum.reduceat(at, a_ptr[:-1][some])
        i, i2 = e_row[off], rinv.indices[off]  # each row in one block at most
        lo[i], hi[i] = np.minimum(lo[i], lo[i2]), np.maximum(hi[i], hi[i2])
        self._pairs = a_count * (a_count + 1) // 2
        self._pairs[i] += a_count[i] * a_count[i2]
        self._reach = np.maximum(hi - lo, 0)
        kd = int(self._reach.max(initial=0))
        _read_only(self._reach, self._pairs)
        # a lead (e, k) per entry e = (i, i') of R^-1 and A entry (i, k);
        # its partners are the rest of row i where i' = i, else row i'
        leads = a_count[e_row]
        lead = _ranges(a_ptr[e_row], leads)
        block = np.repeat(off, leads)
        other = np.repeat(rinv.indices, leads)
        start = np.where(block, a_ptr[other], lead)
        count = a_ptr[other + 1] - start
        partner = _ranges(start, count)
        del col, other, start  # here and below: less to hold at the pairs' peak
        # per pair: the partner's band position less the lead's
        hi, partner = at[partner], a[partner]  # J data positions from here on
        hi -= np.repeat(at[lead], count)
        if block.any():  # a 2x2 entry's partners at or right of the lead
            keep = np.repeat(~block, count) | (hi >= 0)
            count -= np.bincount(np.repeat(np.arange(lead.size, dtype=np.int32),
                                           count)[~keep], minlength=lead.size)
            partner = partner[keep]  # one at a time: less to hold
            hi = hi[keep]
            del keep
        lo = np.repeat(at[lead], count)
        np.add(lo, hi, out=lo, where=hi < 0)  # the min of the two positions
        np.abs(hi, out=hi)  # and the max less it
        if curved is None:  # a constant H's free columns, transposed, past the peak
            self._ht = csc_matrix((j.data[a], a_col, a_ptr), shape=(n, m))
            _read_only(self._ht.data, self._ht.indices, self._ht.indptr)
        # nnz(G) <= 2 pairs: a band too wide for that many is left uncounted
        size = n * (kd + 1)
        if not _band_fits(n, kd, 2 * partner.size):
            return
        slot = hi  # _band_slot(lo, lo + hi, kd), built in place
        lo *= kd + 1
        slot += lo
        del lo
        filled = np.zeros(size, dtype=bool)
        filled[slot] = True
        nnz = 2 * np.count_nonzero(filled) - np.count_nonzero(filled[::kd + 1])
        if not _band_fits(n, kd, nnz):
            return
        self._perm, self._size, self._nnz = np.array(order, dtype=np.intp), size, nnz
        _read_only(self._perm)
        if curved is None:  # H constant: fold the pairs, then drop them
            products = j.data[partner]
            del partner
            products *= np.repeat(j.data[a[lead]], count)
            del lead
            self._slots = np.flatnonzero(filled)
            del filled
            rows = np.searchsorted(self._slots, slot).astype(np.int32)
            del slot
            # per stored entry of R^-1, its leads' pairs, in order
            pair_at = np.concatenate([[0], np.cumsum(count)])
            columns = pair_at[np.concatenate([[0], np.cumsum(leads)])].astype(np.int32)
            self._fold = csc_matrix((products, rows, columns),
                                    shape=(self._slots.size, rinv.nnz))
            _read_only(self._slots, self._fold.data, self._fold.indices, self._fold.indptr)
            return
        self._a, self._a_count, self._a_col = a, a_count, a_col
        self._count, self._lead, self._partner, self._slot = count, a[lead], partner, slot
        self._lead_w = np.repeat(np.arange(rinv.nnz), leads)
        k, l = where[curved.k], where[curved.l]  # the curvature entries' positions
        self._s_slot = _band_slot(np.minimum(k, l), np.maximum(k, l), kd)
        _read_only(a, a_count, a_col, count, self._lead, partner, slot, self._lead_w,
                   self._s_slot)

    def solve(self, problem: EstimationProblem, j, rinv, r: np.ndarray,
              curvature: _Curvature | None = None,
              tolerance: float | None = None) -> np.ndarray:
        """dx of the problem's iterate whose J (all columns) is j, under
        weights rinv: R^-1 on its own pattern, inactive rows' entries
        zero; with the second-order term of ``curvature`` unless that is
        refused.  A SingularGain names the unknown by
        ``problem.unknown_name``.

        The problem keeps the solve of its last factor with the weights
        it was taken under (``problem._kept``).  Given ``tolerance``,
        this first solves the iterate's right-hand side with that factor,
        if its weights are these: a step of at most ``tolerance`` is
        returned, logged at DEBUG, and a longer one discarded (the chord
        step; Kelley, Iterative Methods for Linear and Nonlinear
        Equations, 1995, ch. 5).  The problem's kept factor is released
        before a new gain is formed; the layout's flat-start factor stays
        alive beside it (``_Layout``'s memory note).

        The first iterate from the flat start, whose j is its layout's J
        there (``_Layout.flat_rows``) and which carries no curvature,
        takes the factor its layout kept from an earlier estimate where
        that was taken under these weights, logged at DEBUG, instead of
        forming and factoring its gain.  Otherwise its new factor, once
        it passes the pivot test, replaces the layout's.  Either way the
        problem keeps it too.  A layout whose weights never repeat
        (``_Layout._repeats``) keeps no factor."""
        y = rinv @ r
        data = j.data
        if self._perm is not None and self._ht is None:  # J's band: summed too
            rhs = np.zeros(self._n)
            np.add.at(rhs, self._a_col, data[self._a] * np.repeat(y, self._a_count))
        else:  # by a product with H's free columns transposed, or J's
            ht = j[:, self._free].T if self._ht is None else self._ht
            rhs = ht @ y
        kept, problem._kept = problem._kept, None
        if tolerance is not None and kept is not None and np.array_equal(kept[1], rinv.data):
            dx = kept[0](rhs)
            step = float(np.max(np.abs(dx))) if dx.size else 0.0
            if step <= tolerance:
                log.debug(_CONFIRMED, step)
                return dx
            del dx
        del kept
        layout = problem._layout
        flat = (curvature is None and layout._repeats and layout._flat_rows is not None
                and j is layout._flat_rows[1])
        if flat and layout._flat_factor is not None and np.array_equal(
                layout._flat_factor[1], rinv.data):
            log.debug(_REUSED)
            problem._kept = layout._flat_factor
            return problem._kept[0](rhs)
        if self._perm is None:
            g = csc_matrix(ht @ rinv @ ht.T)

        def solve(s=None):
            """Factor G less S's entries s, keep the factor and solve: by
            SuperLU, or from G's lower band, folded or summed from J."""
            problem._kept = None  # the factor of a refused step
            if self._perm is None:
                factor = _factor_lu(g if s is None else g - curvature.matrix(s),
                                    problem.unknown_name)
            else:
                if self._fold is not None:  # H's pairs, folded
                    ab = np.zeros(self._size)
                    ab[self._slots] = self._fold @ rinv.data
                else:
                    # the terms before the band: the other way round, an
                    # ac_lattice estimate took ~930 minor page faults
                    # instead of 230-430, and ~1.3 of ~12.7 ms longer
                    # (medians of 60 in-process, 2 vCPU)
                    terms = np.repeat(rinv.data[self._lead_w] * data[self._lead],
                                      self._count)
                    terms *= data[self._partner]
                    ab = np.zeros(self._size)
                    np.add.at(ab, self._slot, terms)
                if s is not None:
                    np.subtract.at(ab, self._s_slot, s)
                factor = _factor_band(ab.reshape(self._n, -1), self._perm,
                                      problem.unknown_name)
            problem._kept = factor, rinv.data
            if flat:  # it replaces the layout's
                weights = rinv.data.copy()
                _read_only(weights)
                problem._kept = layout._flat_factor = factor, weights
            return factor(rhs)

        if curvature is not None:
            dx = curvature.step(y, rhs, solve)
            if dx is not None:
                return dx
        return solve()


def _factor_lu(g: csc_matrix, name_of=None) -> Callable[[np.ndarray], np.ndarray]:
    """Sparse LU of the symmetric gain with symmetric (diagonal)
    pivoting, for gains too wide for band storage.

    A fill-reducing minimum-degree ordering of G + G^T is applied to rows
    and columns alike.  SuperLU itself only rejects exactly zero pivots,
    so the factor is also refused when the pivoting left the diagonal
    (G is not numerically positive definite) or when a pivot fails the
    test of ``_factor_band``; the error names the first weak unknown in
    column order.
    """
    try:
        lu = splu(g, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularGain(f"gain matrix factorization failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SingularGain("gain matrix is not numerically positive definite")
    pivots = lu.U.diagonal()[lu.perm_c]
    diag = g.diagonal()
    weak = pivots <= pivots.size * np.finfo(float).eps * diag
    if weak.any():
        k = int(np.argmax(weak))
        _refuse(pivots[k], k, diag[k], name_of)
    return lu.solve


def _refuse(pivot, k, diag, name_of):
    """Raise the SingularGain for a weak pivot of unknown k."""
    unknown = name_of(k) if name_of else f"column {k}"
    raise SingularGain(
        f"gain matrix is numerically singular: pivot {pivot:.3g} for "
        f"{unknown} against its diagonal {diag:.3g}")


def _solve_orthogonal(aw, bw, curvature: _Curvature | None = None, y=None):
    """Solve the whitened least-squares system aw dx = bw by QR
    factorization, aw = Q R.

    Given a second-order term S (``curvature``, with y = R^-1 r) it
    takes the normal method's iterate (G - S) dx = aw^T bw instead, from
    the same triangular factor: (I - R^-T S R^-1) u = Q^T bw by a
    Cholesky factor, then R dx = u.  Where that step is refused (see
    ``_Curvature.step``; a failed Cholesky factor refuses it too) it
    takes the plain QR step.
    """
    n = aw.shape[1]
    if not n:  # no unknowns: nothing to solve for
        return np.zeros(0)
    if issparse(aw):
        aw = aw.toarray()
    q, rr = np.linalg.qr(aw)
    diag = np.abs(np.diag(rr))
    if aw.shape[0] < n or diag.min() <= n * np.finfo(float).eps * max(diag.max(), 1.0):
        raise SingularGain("whitened Jacobian is rank deficient")
    qb = q.T @ bw
    if curvature is not None:
        def solve(s):
            # R^-T S R^-1, S symmetric
            c = dtrtrs(rr, dtrtrs(rr, curvature.dense(s), trans=1)[0].T, trans=1)[0]
            low, info = dpotrf(np.eye(n) - c, lower=1)
            if info:
                raise SingularGain(f"I - R^-T S R^-1 is not positive definite at pivot {info}")
            return dtrtrs(rr, dpotrs(low, qb, lower=1)[0])[0]

        dx = curvature.step(y, rr.T @ qb, solve)
        if dx is not None:
            return dx
    # rr is C-ordered: R dx = qb solved as (R^T)^T dx = qb on its
    # Fortran-ordered transpose, without a copy
    return dtrtrs(rr.T, qb, lower=1, trans=1)[0]


def gauss_newton(problem: EstimationProblem, x0: StateVector | None = None,
                 cfg: SolverConfig | None = None) -> EstimationResult:
    """Iterate the gain system until the state increment stalls.

    A constant-Jacobian problem (DC, linear_rect) stops after its first
    step, which is exact.  From the flat start (x0 None or equal to
    ``problem.initial_state()``) the first iterate leaves every I_mag,
    I_mag_pmu and I_ang_pmu row out, logged at DEBUG; that step never
    ends the loop, so a full-row iterate always follows it, and where
    the rows left out carried observability (a SingularGain) the iterate
    is solved again with them.  Every other iterate adds the I_mag and
    I_mag_pmu rows' second-order term to the gain, and takes the plain
    Gauss-Newton step, logged at DEBUG, where that gain is refused (see
    the module docstring); only a refused plain gain raises
    SingularGain.  An iterate whose previous step was at most
    sqrt(step_tolerance) hands the tolerance to its gain plan under the
    normal method: the final sub-tolerance increment then comes from the
    factor the problem kept from the iterate before, where that was
    taken under the same weights, logged at DEBUG (``_GainPlan.solve``).
    The kept factor is released when the estimate ends.  A kernel
    problem's first iterate from the flat start, the masked one and its
    retry with every row alike, takes its rows from the layout, and
    under the normal method the factor its layout kept from an earlier
    flat-start gain under the same weights, logged at DEBUG; a refused
    factor is never kept, so it is refused again.
    Rows with undefined gradients (currents below the guard) are
    dropped for the affected iteration only, with a logged warning
    unless the masked first iterate leaves them out anyway; if any were
    dropped at the converging iterate the result is marked not
    converged; the layout's rows that the set lacks are inactive at
    every iterate and never count as dropped.  h(x) is evaluated once
    per iterate, over the layout's rows: each objective_trace
    entry comes from the residual of the next linearization, the last
    one from the final residuals.  A start in the wrong coordinates, of
    the wrong size, with a non-finite entry or with another slack anchor
    raises InputError, a singular gain SingularGain; hitting the
    iteration cap returns the partial result with converged=False.  So
    does an iterate whose residual or step is not finite, logged at
    WARNING: the result is then the last iterate whose residual was
    finite, the traces end there, and the objective trace holds at least
    that iterate's.  A final objective that is not finite, as after a
    constant-Jacobian problem's exact step to a state out of range,
    also ends the estimate unconverged, logged at WARNING; a residual
    that is not finite makes the objective so.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    x = (x0 if x0 is not None else problem.initial_state()).copy()
    expect = _FACTS[problem.formulation].coordinates
    if x.coordinates != expect:
        raise InputError(
            f"{problem.formulation} needs a {expect} start, got {x.coordinates}")
    if x.n_buses != problem.net.n_buses:
        raise InputError(f"start state has {x.n_buses} bus(es), the network "
                         f"{problem.net.n_buses}")
    if not np.isfinite(x.values).all():
        raise InputError("start state holds a non-finite value")
    if x.slack_bus != problem.net.slack_bus:
        raise InputError("start state pins a different slack bus than the network")
    if x.slack_value != problem.fixed_value:
        raise InputError(
            f"start state pins the slack entry at {x.slack_value:g}, the "
            f"{problem.formulation} formulation anchors it at {problem.fixed_value:g}")
    x.values[x.slack_index] = x.slack_value
    last = x.values.copy()  # the last iterate whose residual was finite
    free = problem.free_indices
    rinv = problem.covariance.inverse()
    flat = np.array_equal(x.values, problem.initial_state().values)
    # the rows the first iterate leaves out, None once it is taken
    current = _POLAR_CURRENT[problem._layout.codes]
    if problem._held is not None:
        current &= problem._held
    if not (current.any() and flat):
        current = None
    converged = False
    iterations = 0
    objective_trace: list[float] = []
    max_step_trace: list[float] = []

    def record_objective(r):
        """Trace r^T R^-1 r of the iterate whose wrapped residual, over
        the layout's rows, is r."""
        obj = _quadratic(problem, rinv, r)
        if objective_trace and obj > objective_trace[-1]:
            log.debug("objective increased from %.6e to %.6e",
                      objective_trace[-1], obj)
        objective_trace.append(obj)

    for k in range(cfg.max_iterations):
        # the curved rows' second-order term, but not at the flat start
        second_order = None if flat and not k else x
        h, j, active = problem.rows(x)
        r = problem._residuals_of(h)
        if not np.isfinite(r).all():
            log.warning(_DIVERGED, "residual")
            x.values[:] = last
            if max_step_trace:  # the step to x is undone
                iterations -= max_step_trace.pop() > cfg.step_tolerance
                objective_trace[-1:] = []  # the final record takes its place
            break
        if max_step_trace:
            record_objective(r)
        # the set's rows dropped; the rows it lacks are never active
        dropped = int(np.count_nonzero(~active)) - problem._absent
        dropped_at_last = dropped > 0
        method = cfg.linear_system_method
        dx = None
        if current is not None:
            log.debug("leaving %d polar current row(s) out of the first "
                      "flat-start iteration", int(current.sum()))
            try:
                dx = problem._gain_system(j, r, active & ~current, method).solve(method)
            except SingularGain:
                log.debug("current rows carry observability at the flat "
                          "start: solving the first iteration with them")
            current = None
        masked = dx is not None
        if not masked:
            if dropped_at_last:
                log.warning("dropping %d flat-singular row(s) for this iteration",
                            dropped)
            # a step at most sqrt(tol) earns the next one a try of the
            # kept factor
            confirm = None
            if max_step_trace and max_step_trace[-1] <= math.sqrt(cfg.step_tolerance):
                confirm = cfg.step_tolerance
            dx = problem._gain_system(j, r, active, method, second_order,
                                      tolerance=confirm).solve(method)
        step = float(np.max(np.abs(dx))) if dx.size else 0.0
        if not math.isfinite(step):
            log.warning(_DIVERGED, "step")
            objective_trace[-1:] = []  # the final record takes its place
            break
        last = x.values.copy()
        x.values[free] += dx
        max_step_trace.append(step)
        if step > cfg.step_tolerance:
            iterations += 1
        if masked:  # never the converging step: a full-row iterate follows
            continue
        if step <= cfg.step_tolerance or problem.is_linear:
            converged = not dropped_at_last
            break
    problem._kept = None  # a factor serves one estimate
    residuals = problem.residuals(x)
    record_objective(problem._spread(residuals))
    if converged and not math.isfinite(objective_trace[-1]):
        log.warning(_DIVERGED, "final objective")
        converged = False
    return EstimationResult(
        x_hat=x,
        converged=converged,
        iterations=iterations,
        objective_trace=objective_trace,
        max_step_trace=max_step_trace,
        residuals=residuals,
    )


def linear_wls(h, r_model, z, method: str = NORMAL) -> np.ndarray:
    """WLS solution x of (H^T R^-1 H) x = H^T R^-1 z.

    h is a constant Jacobian over the solved unknowns (already
    slack-reduced), r_model a CovarianceModel or plain variance vector,
    z the measurement values.  Returns the solution vector.
    """
    if not isinstance(r_model, CovarianceModel):
        r_model = CovarianceModel(np.asarray(r_model, dtype=float))
    if not issparse(h):
        h = np.asarray(h, dtype=float)
    return GainSystem(h, r_model, np.asarray(z, dtype=float)).solve(method)


def solve(problem: EstimationProblem, cfg: SolverConfig | None = None,
          x0: StateVector | None = None) -> EstimationResult:
    """Estimate the state of any formulation; see gauss_newton."""
    return gauss_newton(problem, x0, cfg)


def result_to_dict(problem: EstimationProblem, result: EstimationResult) -> dict:
    """Result-file document: per-bus state plus per-row residuals."""
    state: StateVector = result.x_hat
    if state.coordinates == POLAR:
        theta = state.angles
        vmag = state.magnitudes
        re = vmag * np.cos(theta)
        im = vmag * np.sin(theta)
    else:
        re, im = state.re, state.im
        vmag = np.hypot(re, im)
        theta = np.arctan2(im, re)
    mset = problem.mset
    r = result.residuals
    columns = zip(mset.kind_tags(), mset.at_lists(), mset.values().tolist(),
                  problem.values(state).tolist(), r.tolist(),
                  (r / np.sqrt(mset.variances())).tolist())
    rows = [{"kind": kind, "at": at, "z": z, "h": h, "residual": res,
             "normalized_residual": nres}
            for kind, at, z, h, res, nres in columns]
    return {
        "formulation": problem.formulation.value,
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "objective_trace": [float(v) for v in result.objective_trace],
        "max_step_trace": [float(v) for v in result.max_step_trace],
        "state": {
            "buses": [
                {"id": i + 1, "V": float(vmag[i]), "theta": float(theta[i]),
                 "re": float(re[i]), "im": float(im[i])}
                for i in range(state.n_buses)
            ],
        },
        "residuals": rows,
    }
