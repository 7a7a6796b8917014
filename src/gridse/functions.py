"""Measurement functions h(x) and their analytic Jacobian.

Four families share this module:

* legacy rows over a polar state (power flows, injections, current
  magnitude, voltage magnitude),
* phasor rows in polar coordinates over a polar state (voltage and
  current magnitude/angle pairs),
* phasor rows in rectangular coordinates over a polar state (indirect
  real/imaginary measurements),
* constant-Jacobian rows: rectangular phasors over a rectangular state
  and the angle-only DC family.

State indexing convention: for an N-bus polar state, the angle of bus k
is column k-1 and its magnitude column N+k-1; rectangular states use
the same split for real/imaginary parts; the DC family uses N angle
columns.

All 17 kinds are evaluated at a polar state by a ``MeasurementKernel``,
compiled once per measurement set: rows are grouped by kind into index
arrays (branch-end rows with their two-port (A, B) from
``net.two_port``, injection rows with
their rows of ``net.admittance``, bus rows, and the DC rows of
``dc_rows`` over the angle columns), and the CSR sparsity pattern of
the Jacobian is fixed at compile time.  Each evaluation computes h and
the Jacobian entries as array expressions, one pass per kind, and only
refills J's data array, in the style of MATPOWER's vectorised
derivatives (Zimmerman, "AC Power Flows, Generalized OPF Costs and
their Derivatives using Complex Matrix Notation", MATPOWER TN2, 2010).
The kernel, ``linear_rows_rectstate`` and ``dc_rows`` read the rows'
locations already resolved against the network (``Locations``), so
compiling them is array work with a small fixed cost and no per-row
Python.  ``evaluate_row`` and ``evaluate_value`` compile a kernel for
the row they are given, so every caller runs the same formulas.

Every current row (I_mag, I_mag_pmu, I_ang_pmu, I_re, I_im) is built
on one branch current, I = A V_i + B V_j, computed with its
partials in the near-end frame I' = I e^(-j theta_i) by ``_current``:
|I| = hypot(Re I', Im I'), the partials of |I| and of angle I follow
from those of I', and Re I and Im I turn I' back by theta_i.  A current
that is zero comes out at rounding level, so the guard sees it.
Current magnitude and current angle rows divide by the current
magnitude; below ``CURRENT_GUARD`` the value is still defined but the
partials are not: the kernel marks such rows inactive with zero
partials, and ``evaluate_row`` raises FlatStartSingularity.

The current magnitude rows are the kernel's curved rows: it also gives
their analytic Hessian (``MeasurementKernel.curvature``), ten upper
entries per row on a pattern fixed at compile time, for the
second-order term of the Gauss-Newton iterate.  Below the guard it is
zero, as the partials are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from .errors import FlatStartSingularity, InputError, UnsupportedKind
from .measurements import (
    KIND_CODE,
    KINDS,
    Locations,
    MeasurementKind,
    MeasurementSet,
    location_columns,
    locate,
)
from .network import NetworkModel
from .states import POLAR, StateVector

K = MeasurementKind

# Below this current magnitude (p.u.) the magnitude/angle partials are
# treated as undefined; the classic hazard is a flat start across a
# branch with no shunts, or equal voltages at its ends off the flat start.
CURRENT_GUARD = 1e-9


@dataclass
class FunctionRow:
    """Scalar measurement function value and its sparse gradient."""
    value: float
    gradient: dict[int, float]


def _end_params(loc: Locations, rows) -> tuple:
    """0-based end buses i, j and the two-port (A, B) of the resolved
    branch-end rows at positions ``rows``, I = A V_i + B V_j; A and B
    are (re, im) pairs of arrays read from ``net.two_port``."""
    ar, ai, br, bi = loc.net.two_port[2 * loc.branch[rows] + loc.reverse[rows]].T
    return loc.i[rows], loc.j[rows], (ar, ai), (br, bi)


# ---------------------------------------------------------------------------
# branch-end rows: value and partials over (theta_i, theta_j, V_i, V_j)

def _far(e, ti, tj):
    """B e^(-j delta) with delta = theta_i - theta_j, as (re, im)."""
    (br, bi), c, s = e.b, np.cos(ti - tj), np.sin(ti - tj)
    return br * c + bi * s, bi * c - br * s


def _p_flow(e, ti, tj, vi, vj, jac):
    ar = e.a[0]
    wr, wi = _far(e, ti, tj)
    value = vi * vi * ar + vi * vj * wr
    if not jac:
        return value, None, None
    d_ti = vi * vj * wi
    return value, (d_ti, -d_ti, vj * wr + 2.0 * vi * ar, vi * wr), None


def _q_flow(e, ti, tj, vi, vj, jac):
    ai = e.a[1]
    wr, wi = _far(e, ti, tj)
    value = -vi * vi * ai - vi * vj * wi
    if not jac:
        return value, None, None
    d_ti = vi * vj * wr
    return value, (d_ti, -d_ti, -vj * wi - 2.0 * vi * ai, -vi * wi), None


def _current(e, ti, tj, vi, vj, jac):
    """The branch-end current in the near-end frame, I' = I e^(-j theta_i)
    = A V_i + B V_j e^(-j delta) with delta = theta_i - theta_j: its real
    and imaginary parts and, with ``jac``, their partials over
    (theta_i, theta_j, V_i, V_j), two (4, rows) arrays.  The frame turns
    with theta_i, so the two angle partials are negatives of each other."""
    ar, ai = e.a
    wr, wi = _far(e, ti, tj)
    re, im = vi * ar + vj * wr, vi * ai + vj * wi
    if not jac:
        return re, im, None, None
    rt, it = vj * wi, -vj * wr
    return re, im, np.array([rt, -rt, ar, wr]), np.array([it, -it, ai, wi])


def _absolute(re, im, turn):
    """(re, im) of the near-end frame turned back to the network's frame
    by ``turn``, the (cos, sin) of theta_i."""
    c, s = turn
    return re * c - im * s, re * s + im * c


def _guarded(value):
    """1 / value and the rows where value is at least CURRENT_GUARD; the
    inverse is 0 below the guard, which zeroes the partials it scales."""
    ok = value >= CURRENT_GUARD
    return ok / np.where(ok, value, 1.0), ok


def _angle_partials(re, im, d_re, d_im):
    """|I|, the rows where it is at least CURRENT_GUARD, and the partials
    of angle I', (re grad im - im grad re) / |I|^2, zero below the guard."""
    mag = np.hypot(re, im)
    inv, ok = _guarded(mag)
    return mag, ok, (re * d_im - im * d_re) * (inv * inv)


def _i_mag(e, ti, tj, vi, vj, jac):
    re, im, d_re, d_im = _current(e, ti, tj, vi, vj, jac)
    value = np.hypot(re, im)
    if not jac:
        return value, None, None
    inv, ok = _guarded(value)
    return value, (re * d_re + im * d_im) * inv, ok


# The upper entries (a, b), a <= b, of a branch row's 4 x 4 Hessian over
# (theta_i, theta_j, V_i, V_j), row by row.
_UPPER = np.triu_indices(4)


def _i_mag_hessian(e, ti, tj, vi, vj):
    """The Hessian of |I| at its ``_UPPER`` entries, a (10, rows) array;
    zero below CURRENT_GUARD.  With p = grad angle I' it is
    |I| (p p^T + E): the Gram terms of grad re and grad im less
    grad |I| grad |I|^T leave |I| p p^T, and I' has only the second
    partials d2I'/d delta2 = -j dI'/d delta and d2I'/(d delta dV_j) =
    -j dI'/dV_j, which give E = p_delta at (delta, delta) and p_Vj at
    (delta, V_j).  The theta_j entries are the theta_i ones negated."""
    mag, _, (pt, _, pi, pj) = _angle_partials(*_current(e, ti, tj, vi, vj, jac=True))
    st, si, sj = mag * pt, mag * pi, mag * pj
    tt, t_vi, t_vj = st * (pt + 1.0), st * pi, sj * (pt + 1.0)
    return np.array([tt, -tt, t_vi, t_vj, tt, -t_vi, -t_vj, si * pi, si * pj, sj * pj])


def _i_ang(e, ti, tj, vi, vj, jac):
    """Four-quadrant arctangent of the current phasor.  In the near-end
    frame angle I = angle I' + theta_i, so the two angle partials sum to
    one: rotating both end voltages rotates the current with them."""
    re, im, d_re, d_im = _current(e, ti, tj, vi, vj, jac)
    re_abs, im_abs = _absolute(re, im, (np.cos(ti), np.sin(ti)))
    value = np.arctan2(im_abs, re_abs)
    if not jac:
        return value, None, None
    _, ok, parts = _angle_partials(re, im, d_re, d_im)
    parts[0] += ok
    return value, parts, ok


def _i_rect(e, ti, tj, vi, vj, jac):
    """Re I, or Im I on the rows ``e.imag`` flags, in the network's
    frame, I = I' e^(j theta_i): one phasor for the rows of both kinds."""
    re, im, d_re, d_im = _current(e, ti, tj, vi, vj, jac)
    turn = np.cos(ti), np.sin(ti)
    re, im = _absolute(re, im, turn)
    value = np.where(e.imag, im, re)
    if not jac:
        return value, None, None
    d_re, d_im = _absolute(d_re, d_im, turn)
    # turning the frame by theta_i adds j I to dI/dtheta_i
    d_re[0] -= im
    d_im[0] += re
    return value, np.where(e.imag, d_im, d_re), None


class _BranchRows:
    """Rows of one branch formula: four partials each, at columns
    (theta_i, theta_j, V_i, V_j), and where the formula has one, the
    ``_UPPER`` entries of the Hessian over them.  ``imag`` flags the
    I_im rows, which take the imaginary part of the formula's phasor."""

    def __init__(self, loc, rows, formula, hessian=None):
        self.rows = rows
        self.imag = loc.codes[rows] == KIND_CODE[K.I_IM]
        self.formula = formula
        self.hessian = hessian
        self.i, self.j, self.a, self.b = _end_params(loc, rows)
        n = loc.net.n_buses
        self.cols = np.concatenate([self.i, self.j, n + self.i, n + self.j])

    def pattern(self):
        return np.concatenate((self.rows,) * 4), self.cols

    def evaluate(self, th, v, jac):
        value, parts, ok = self.formula(self, th[self.i], th[self.j],
                                        v[self.i], v[self.j], jac)
        return value, (np.concatenate(parts) if jac else None), ok

    def curvature_pattern(self):
        cols = self.cols.reshape(4, -1)
        a, b = _UPPER
        return (np.concatenate((self.rows,) * a.size), cols[a].ravel(), cols[b].ravel())

    def curvature(self, th, v):
        return self.hessian(self, th[self.i], th[self.j], v[self.i], v[self.j]).ravel()


# ---------------------------------------------------------------------------
# bus rows: value and partials over the listed columns (0 angle, 1 magnitude)

def _v_mag(th, v):
    return v, (np.ones_like(v),)


def _v_ang(th, v):
    return th, (np.ones_like(th),)


def _v_re(th, v):
    c, s = np.cos(th), np.sin(th)
    return v * c, (-v * s, c)


def _v_im(th, v):
    c, s = np.cos(th), np.sin(th)
    return v * s, (v * c, s)


class _BusRows:
    """Rows of one bus formula, with partials at the layout's columns."""

    def __init__(self, loc, rows, formula, layout):
        self.rows = rows
        self.bus = loc.i[rows]
        self.formula = formula
        n = loc.net.n_buses
        self.cols = np.concatenate([self.bus + n * side for side in layout])
        self.width = len(layout)

    def pattern(self):
        return np.concatenate((self.rows,) * self.width), self.cols

    def evaluate(self, th, v, jac):
        value, parts = self.formula(th[self.bus], v[self.bus])
        return value, (np.concatenate(parts) if jac else None), None


# ---------------------------------------------------------------------------
# injection rows, summed over the stored entries of the bus's Y row

class _InjectionRows:
    """P or Q injection rows.  Partials sit at (theta_k, V_k) for every
    off-diagonal entry k of the Y row, then at (theta_i, V_i)."""

    def __init__(self, loc, rows, reactive):
        self.rows = rows
        self.bus = loc.i[rows]
        self.reactive = reactive
        net = loc.net
        y = net.admittance
        # The stored entries of each row's Y row, row after row.
        start = y.indptr[self.bus]
        count = y.indptr[self.bus + 1] - start
        self.owner = np.repeat(np.arange(self.bus.size), count)
        pos = np.arange(count.sum()) + np.repeat(start - np.cumsum(count) + count, count)
        self.k = y.indices[pos]
        self.ik = self.bus[self.owner]
        self.g = y.data[pos].real
        self.b = y.data[pos].imag
        self.off = self.k != self.ik
        n = net.n_buses
        off_k = self.k[self.off]
        self.cols = np.concatenate([off_k, n + off_k, self.bus, n + self.bus])
        off_rows = self.rows[self.owner[self.off]]
        self._pattern_rows = np.concatenate([off_rows, off_rows, self.rows, self.rows])

    def pattern(self):
        return self._pattern_rows, self.cols

    def _sum(self, terms):
        return np.bincount(self.owner, terms, minlength=self.bus.size)

    def evaluate(self, th, v, jac):
        g, b, off = self.g, self.b, self.off
        vi, vk = v[self.ik], v[self.k]
        t = th[self.ik] - th[self.k]
        c, s = np.cos(t), np.sin(t)
        # cos/sin weightings of the entry: along the real power, across it
        along, across = g * c + b * s, g * s - b * c
        if self.reactive:
            along, across = across, -along
        value = self._sum(vi * vk * along)
        if not jac:
            return value, None, None
        diag = 2.0 * vi * (-b if self.reactive else g)
        d_ti = self._sum(np.where(off, -vi * vk * across, 0.0))
        d_vi = self._sum(np.where(off, vk * along, diag))
        return value, np.concatenate([
            (vi * vk * across)[off], (vi * along)[off], d_ti, d_vi]), None


# ---------------------------------------------------------------------------
# DC rows: the DC family's constant rows over the angle columns

class _DCRows:
    """P_flow_dc, P_inj_dc and Theta rows: ``dc_rows`` over the angle
    columns, value H_dc @ theta, constant partials."""

    def __init__(self, loc, rows):
        self.rows = rows
        self.h = _dc_matrix(loc.take(rows))

    def pattern(self):
        return np.repeat(self.rows, np.diff(self.h.indptr)), self.h.indices

    def evaluate(self, th, v, jac):
        return self.h @ th, (self.h.data if jac else None), None


# ---------------------------------------------------------------------------
# the compiled kernel

# The kernel's row groups: the kinds sharing one formula, and the group
# class with its formula.
_GROUPS = [
    ((K.P_FLOW,), partial(_BranchRows, formula=_p_flow)),
    ((K.Q_FLOW,), partial(_BranchRows, formula=_q_flow)),
    ((K.I_MAG, K.I_MAG_PMU), partial(_BranchRows, formula=_i_mag, hessian=_i_mag_hessian)),
    ((K.I_ANG_PMU,), partial(_BranchRows, formula=_i_ang)),
    ((K.I_RE, K.I_IM), partial(_BranchRows, formula=_i_rect)),
    ((K.V_MAG, K.V_MAG_PMU), partial(_BusRows, formula=_v_mag, layout=(1,))),
    ((K.V_ANG_PMU,), partial(_BusRows, formula=_v_ang, layout=(0,))),
    ((K.V_RE,), partial(_BusRows, formula=_v_re, layout=(0, 1))),
    ((K.V_IM,), partial(_BusRows, formula=_v_im, layout=(0, 1))),
    ((K.P_INJ,), partial(_InjectionRows, reactive=False)),
    ((K.Q_INJ,), partial(_InjectionRows, reactive=True)),
    ((K.P_FLOW_DC, K.P_INJ_DC, K.THETA), _DCRows),
]
# Kernel group of each kind code.
_GROUP_OF = np.empty(len(KINDS), dtype=np.intp)
for _g, (_kinds, _) in enumerate(_GROUPS):
    _GROUP_OF[[KIND_CODE[kind] for kind in _kinds]] = _g


class MeasurementKernel:
    """h(x) and the Jacobian of a fixed list of rows of any kind at a
    polar state.

    Compiled once from (net, placements), where placements are resolved
    Locations or (kind, at) pairs; rows keep their order.  The Jacobian's CSR
    pattern (``indptr``, ``indices``) is the same at every state, and so
    is the curved rows' Hessian pattern (``curvature_pattern``); these
    arrays are read-only.
    Injection rows read ``net.admittance``; DC rows are ``dc_rows`` on
    the angle columns.  A branch row on a missing or parallel branch, a
    bus row outside 1..N and a DC row on a zero-reactance branch are
    InputErrors.
    """

    def __init__(self, net: NetworkModel, placements):
        if isinstance(placements, Locations):
            loc = placements
        else:
            placements = list(placements)
            codes = np.array([KIND_CODE[kind] for kind, _ in placements], dtype=np.intp)
            loc = locate(net, codes, location_columns(codes, [at for _, at in placements]))
        self.m = loc.codes.size
        self.n_columns = 2 * net.n_buses
        group = _GROUP_OF[loc.codes]
        present = np.flatnonzero(np.bincount(group, minlength=len(_GROUPS)))
        self._groups = [_GROUPS[g][1](loc, np.flatnonzero(group == g))
                        for g in present.tolist()]
        patterns = [grp.pattern() for grp in self._groups]
        empty = [np.zeros(0, dtype=int)]
        rows = np.concatenate([p[0] for p in patterns] + empty)
        cols = np.concatenate([p[1] for p in patterns] + empty)
        # Entries are computed group by group; _order puts them in CSR
        # order, by row and then column, as np.lexsort((cols, rows)) would
        # at a tenth of its cost.
        self._order = np.argsort(rows * self.n_columns + cols, kind="stable")
        self.indices = cols[self._order]
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(rows, minlength=self.m))])
        self._curved_groups = [grp for grp in self._groups
                               if isinstance(grp, _BranchRows) and grp.hessian is not None]
        patterns = [grp.curvature_pattern() for grp in self._curved_groups]
        # (row, column a, column b) of each upper Hessian entry of a curved row
        self.curvature_pattern = tuple(np.concatenate([p[k] for p in patterns] + empty)
                                       for k in range(3))
        for array in (self.indices, self.indptr, self._order, *self.curvature_pattern):
            array.flags.writeable = False

    def _evaluate(self, x: StateVector, jac: bool):
        if x.coordinates != POLAR:
            raise InputError("this measurement function needs a polar state")
        n = x.n_buses
        th, v = x.values[:n], x.values[n:]
        h = np.empty(self.m)
        active = np.ones(self.m, dtype=bool) if jac else None
        parts = []
        for grp in self._groups:
            value, data, ok = grp.evaluate(th, v, jac)
            h[grp.rows] = value
            if jac and ok is not None:
                active[grp.rows] = ok
            parts.append(data)
        if not jac:
            return h, None, None
        data = np.concatenate(parts)[self._order] if parts else np.zeros(0)
        return h, data, active

    def values(self, x: StateVector) -> np.ndarray:
        """h(x) for every row; never raises on flat-singular currents."""
        return self._evaluate(x, jac=False)[0]

    def rows(self, x: StateVector):
        """(h, J, active): J is m x 2N CSR on the fixed pattern.  Rows
        whose partials are undefined at x (current below CURRENT_GUARD)
        are inactive, with their value filled and zero partials."""
        h, data, active = self._evaluate(x, jac=True)
        j = csr_matrix((data, self.indices, self.indptr),
                       shape=(self.m, self.n_columns))
        return h, j, active

    def curvature(self, x: StateVector) -> np.ndarray:
        """The Hessian entries of the curved rows (current magnitudes) at
        a polar state, on ``curvature_pattern``; zero for rows whose
        current is below CURRENT_GUARD."""
        n = x.n_buses
        th, v = x.values[:n], x.values[n:]
        return np.concatenate([grp.curvature(th, v) for grp in self._curved_groups]
                              + [np.zeros(0)])


# ---------------------------------------------------------------------------
# one row over the kernel

def evaluate_row(net: NetworkModel, x: StateVector, kind: MeasurementKind,
                 at: tuple[int, ...]) -> FunctionRow:
    """Value plus gradient of one measurement function at a polar state;
    a DC kind's gradient is its ``dc_rows`` row over the angle columns.

    Raises FlatStartSingularity for a current magnitude or angle row
    whose current is below CURRENT_GUARD.
    """
    kernel = MeasurementKernel(net, [(kind, tuple(at))])
    h, data, active = kernel._evaluate(x, jac=True)
    if not active[0]:
        raise FlatStartSingularity(
            f"current on branch {at[0]}-{at[1]} is below {CURRENT_GUARD:g} "
            f"p.u.; the {kind} row's partials are undefined")
    return FunctionRow(float(h[0]), dict(zip(kernel.indices.tolist(), data.tolist())))


# ---------------------------------------------------------------------------
# constant-Jacobian families

# V_re and V_im select a state column; I_re and I_im are branch-end rows.
_RECT_CODE = np.full(len(KINDS), -1)
_RECT_CODE[[KIND_CODE[kind] for kind in (K.V_RE, K.V_IM, K.I_RE, K.I_IM)]] = range(4)


def linear_rows_rectstate(net: NetworkModel, mset: MeasurementSet) -> csr_matrix:
    """Constant Jacobian H over the 2N rectangular state columns.

    Only rectangular phasor kinds are admissible; h(x) = H @ x holds
    exactly for every state, so the rows double as the value map.
    """
    n = net.n_buses
    code = _RECT_CODE[mset.codes]
    if (code < 0).any():
        kind = KINDS[mset.codes[np.argmax(code < 0)]]
        raise UnsupportedKind(f"{kind} is not linear in the rectangular state")
    loc = mset.locations(net)
    volt = np.flatnonzero(code < 2)
    cur = np.flatnonzero(code >= 2)
    bus = loc.i[volt]
    i, j, (ar, ai), (br, bi) = _end_params(loc, cur)
    im = code[cur] == 3
    # I = A V_i + B V_j over (Re V_i, Im V_i, Re V_j, Im V_j)
    data = np.concatenate([
        np.ones(volt.size),
        np.where(im, ai, ar), np.where(im, ar, -ai),
        np.where(im, bi, br), np.where(im, br, -bi)])
    rows = np.concatenate([volt, cur, cur, cur, cur])
    cols = np.concatenate([bus + n * code[volt], i, n + i, j, n + j])
    return coo_matrix((data, (rows, cols)), shape=(len(mset), 2 * n)).tocsr()


_DC_FLOW, _DC_INJ, _DC_THETA = 0, 1, 2
_DC_CODE = np.full(len(KINDS), -1)
_DC_CODE[[KIND_CODE[K.P_FLOW_DC], KIND_CODE[K.P_INJ_DC], KIND_CODE[K.THETA]]] = (
    _DC_FLOW, _DC_INJ, _DC_THETA)


def dc_rows(net: NetworkModel, mset: MeasurementSet) -> csr_matrix:
    """Constant Jacobian H over the N angle columns of the DC family."""
    code = _DC_CODE[mset.codes]
    if (code < 0).any():
        kind = KINDS[mset.codes[np.argmax(code < 0)]]
        raise UnsupportedKind(f"{kind} does not belong to the DC family")
    return _dc_matrix(mset.locations(net))


def _dc_matrix(loc: Locations) -> csr_matrix:
    """dc_rows over resolved DC-kind rows.

    The series susceptance neglects resistance, b = -1/x; a reactance
    whose b is not finite (zero, or below about 5.6e-309) is an
    InputError naming the branch.  An injection
    row has b at each neighbour's column, one entry per incident branch
    end, and minus their sum on its own bus, both in the order of
    ``net.directed_ends.incident``.
    """
    net = loc.net
    n = net.n_buses
    code = _DC_CODE[loc.codes]
    x = np.array([br.x for br in net.branches], dtype=float)
    flow = np.flatnonzero(code == _DC_FLOW)
    inj = np.flatnonzero(code == _DC_INJ)
    theta = np.flatnonzero(code == _DC_THETA)
    # The incident branch ends of each injection row's bus, row after row.
    ends = net.directed_ends
    bus = loc.i[inj]
    start = ends.incident_ptr[bus]
    degree = ends.incident_ptr[bus + 1] - start
    owner = np.repeat(np.arange(inj.size), degree)
    rank = np.arange(owner.size) - np.repeat(np.cumsum(degree) - degree, degree)
    end = ends.incident[start[owner] + rank]
    branch = np.concatenate([loc.branch[flow], ends.branch[end]])
    with np.errstate(divide="ignore", over="ignore"):
        b = -1.0 / x[branch]
    bad = ~np.isfinite(b)
    if bad.any():
        # The first offending entry in row order, as the rows are built.
        rows = np.concatenate([flow, inj[owner]])
        pos = np.concatenate([np.zeros(flow.size, dtype=int), rank])
        first = np.lexsort((pos, rows))
        br = net.branches[branch[first[np.argmax(bad[first])]]]
        raise InputError(
            f"branch {br.from_bus}-{br.to_bus} has reactance {br.x:.3g}, whose "
            "susceptance -1/x is not finite; the DC model cannot represent it")
    b_flow, b_end = b[:flow.size], b[flow.size:]
    # COO -> CSR keeps each row's entries in input order: list them in the
    # order the rows have always been written, so duplicates sum alike.
    rows = np.concatenate([flow, flow, inj[owner], inj, theta])
    cols = np.concatenate([loc.i[flow], loc.j[flow], ends.key[end] % n, bus, loc.i[theta]])
    data = np.concatenate([-b_flow, b_flow, b_end,
                           -np.bincount(owner, b_end, minlength=inj.size),
                           np.ones(theta.size)])
    return coo_matrix((data, (rows, cols)), shape=(loc.codes.size, n)).tocsr()


# ---------------------------------------------------------------------------
# values of any kind at a polar state

def evaluate_value(net: NetworkModel, x: StateVector, kind: MeasurementKind,
                   at: tuple[int, ...]) -> float:
    """Value of any measurement function at a polar state, by one kernel
    call.  DC kinds are the DC family's rows applied to the state angles.
    Current magnitude and angle values never raise."""
    return float(MeasurementKernel(net, [(kind, tuple(at))]).values(x)[0])
