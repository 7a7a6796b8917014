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
arrays (branch-end rows with their (g, b, gs, bs), injection rows with
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
Python.  ``evaluate_row``, ``evaluate_values`` and ``evaluate_value``
compile a kernel for the rows they are given, so every caller runs the
same formulas.

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
from functools import cached_property, partial

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
# branch with no shunts.
CURRENT_GUARD = 1e-9


@dataclass(frozen=True)
class BranchCoefficients:
    """Directed-end coefficients for current magnitude/angle rows.

    The *_a set describes the current phasor as a linear map of the end
    voltages; the *_c set is its quadratic counterpart for the squared
    magnitude.  They satisfy a_c = a_a**2 + b_a**2, b_c = c_a**2 +
    d_a**2, c_c = a_a*c_a + b_a*d_a and d_c = c_a*b_a - d_a*a_a.  The
    fields are floats or, elementwise, arrays over many branch ends.
    """
    a_a: float
    b_a: float
    c_a: float
    d_a: float
    a_c: float
    b_c: float
    c_c: float
    d_c: float

    @classmethod
    def from_params(cls, g, b, gs, bs) -> "BranchCoefficients":
        a_a, b_a = g + gs, b + bs
        c_a, d_a = g, b
        return cls(
            a_a=a_a, b_a=b_a, c_a=c_a, d_a=d_a,
            a_c=a_a * a_a + b_a * b_a,
            b_c=c_a * c_a + d_a * d_a,
            c_c=a_a * c_a + b_a * d_a,
            d_c=c_a * b_a - d_a * a_a,
        )


@dataclass
class FunctionRow:
    """Scalar measurement function value and its sparse gradient."""
    value: float
    gradient: dict[int, float]


def _end_params(loc: Locations, rows) -> tuple[np.ndarray, ...]:
    """0-based end buses i, j and the (g, b, gs, bs) arrays of the
    resolved branch-end rows at positions ``rows``; gs and bs are the
    shunt at end i."""
    t = loc.net.branch_table[loc.branch[rows]]
    reverse = loc.reverse[rows]
    return (loc.i[rows], loc.j[rows], t[:, 0], t[:, 1],
            np.where(reverse, t[:, 4], t[:, 2]), np.where(reverse, t[:, 5], t[:, 3]))


def locate_placements(net: NetworkModel, placements) -> Locations:
    """(kind, at) placements resolved against the network."""
    placements = list(placements)
    codes = np.array([KIND_CODE[kind] for kind, _ in placements], dtype=np.intp)
    return locate(net, codes, location_columns(codes, [at for _, at in placements]))


# ---------------------------------------------------------------------------
# branch-end rows: value and partials over (theta_i, theta_j, V_i, V_j)

def _p_flow(e, ti, tj, vi, vj, jac):
    g, b, gs = e.g, e.b, e.gs
    c, s = np.cos(ti - tj), np.sin(ti - tj)
    gcbs = g * c + b * s
    value = vi * vi * (g + gs) - vi * vj * gcbs
    if not jac:
        return value, None, None
    d_ti = vi * vj * (g * s - b * c)
    return value, (d_ti, -d_ti, -vj * gcbs + 2.0 * vi * (g + gs), -vi * gcbs), None


def _q_flow(e, ti, tj, vi, vj, jac):
    g, b, bs = e.g, e.b, e.bs
    c, s = np.cos(ti - tj), np.sin(ti - tj)
    gsbc = g * s - b * c
    value = -vi * vi * (b + bs) - vi * vj * gsbc
    if not jac:
        return value, None, None
    d_ti = -vi * vj * (g * c + b * s)
    return value, (d_ti, -d_ti, -vj * gsbc - 2.0 * vi * (b + bs), -vi * gsbc), None


def _zero_where_not(ok, *parts):
    """Partials of rows below the current guard set to zero."""
    return tuple(np.where(ok, p, 0.0) for p in parts)


def _i_mag(e, ti, tj, vi, vj, jac):
    k = e.k
    c, s = np.cos(ti - tj), np.sin(ti - tj)
    sq = k.a_c * vi * vi + k.b_c * vj * vj - 2.0 * vi * vj * (k.c_c * c - k.d_c * s)
    value = np.sqrt(np.maximum(sq, 0.0))
    if not jac:
        return value, None, None
    ok = value >= CURRENT_GUARD
    den = np.where(ok, value, 1.0)
    cross = k.d_c * s - k.c_c * c
    d_ti = vi * vj * (k.d_c * c + k.c_c * s) / den
    return value, _zero_where_not(ok, d_ti, -d_ti, (vj * cross + k.a_c * vi) / den,
                                  (vi * cross + k.b_c * vj) / den), ok


# The upper entries (a, b), a <= b, of a branch row's 4 x 4 Hessian over
# (theta_i, theta_j, V_i, V_j), row by row.
_UPPER = np.triu_indices(4)


def _i_mag_hessian(e, ti, tj, vi, vj):
    """The Hessian of |I| at its ``_UPPER`` entries, a (10, rows) array.
    With sq = |I|^2 and g = grad |I| = grad sq / (2 |I|) it is
    (hess sq / 2 - g g^T) / |I|; zero below CURRENT_GUARD."""
    k = e.k
    c, s = np.cos(ti - tj), np.sin(ti - tj)
    cross = k.d_c * s - k.c_c * c
    turn = k.c_c * s + k.d_c * c
    vv = vi * vj
    value = np.sqrt(np.maximum(k.a_c * vi * vi + k.b_c * vj * vj + 2.0 * vv * cross, 0.0))
    inv = np.divide(1.0, value, out=np.zeros_like(value), where=value >= CURRENT_GUARD)
    g = np.array([vv * turn, -vv * turn, vj * cross + k.a_c * vi, vi * cross + k.b_c * vj])
    g *= inv
    tt = -vv * cross
    # hess sq / 2 at the _UPPER entries
    half = np.array([tt, -tt, vj * turn, vi * turn, tt, -vj * turn, -vi * turn,
                     k.a_c, cross, k.b_c])
    a, b = _UPPER
    half -= g[a] * g[b]
    half *= inv
    return half


def _current_rect(k, ti, tj, vi, vj):
    ci, si, cj, sj = np.cos(ti), np.sin(ti), np.cos(tj), np.sin(tj)
    re = vi * (k.a_a * ci - k.b_a * si) - vj * (k.c_a * cj - k.d_a * sj)
    im = vi * (k.a_a * si + k.b_a * ci) - vj * (k.c_a * sj + k.d_a * cj)
    return re, im, ci, si, cj, sj


def _i_ang(e, ti, tj, vi, vj, jac):
    """Four-quadrant arctangent of the current phasor.  Partials divide
    by the squared magnitude, which makes the two angle partials sum to
    one: rotating both end voltages rotates the current with them."""
    k = e.k
    re, im, *_ = _current_rect(k, ti, tj, vi, vj)
    value = np.arctan2(im, re)
    if not jac:
        return value, None, None
    sq = re * re + im * im
    ok = np.sqrt(sq) >= CURRENT_GUARD
    den = np.where(ok, sq, 1.0)
    c, s = np.cos(ti - tj), np.sin(ti - tj)
    cross = k.d_c * s - k.c_c * c
    d_v = k.c_c * s + k.d_c * c
    return value, _zero_where_not(
        ok, (k.a_c * vi * vi + cross * vi * vj) / den,
        (k.b_c * vj * vj + cross * vi * vj) / den, -vj * d_v / den, vi * d_v / den), ok


def _i_re(e, ti, tj, vi, vj, jac):
    k = e.k
    re, _, ci, si, cj, sj = _current_rect(k, ti, tj, vi, vj)
    if not jac:
        return re, None, None
    return re, (-vi * (k.a_a * si + k.b_a * ci), vj * (k.c_a * sj + k.d_a * cj),
                k.a_a * ci - k.b_a * si, -k.c_a * cj + k.d_a * sj), None


def _i_im(e, ti, tj, vi, vj, jac):
    k = e.k
    _, im, ci, si, cj, sj = _current_rect(k, ti, tj, vi, vj)
    if not jac:
        return im, None, None
    return im, (vi * (k.a_a * ci - k.b_a * si), -vj * (k.c_a * cj - k.d_a * sj),
                k.a_a * si + k.b_a * ci, -k.c_a * sj - k.d_a * cj), None


class _BranchRows:
    """Rows of one branch formula: four partials each, at columns
    (theta_i, theta_j, V_i, V_j), and where the formula has one, the
    ``_UPPER`` entries of the Hessian over them."""

    def __init__(self, loc, rows, formula, hessian=None):
        self.rows = rows
        self.formula = formula
        self.hessian = hessian
        self.i, self.j, self.g, self.b, self.gs, self.bs = _end_params(loc, rows)
        n = loc.net.n_buses
        self.cols = np.concatenate([self.i, self.j, n + self.i, n + self.j])

    @cached_property
    def k(self) -> BranchCoefficients:
        return BranchCoefficients.from_params(self.g, self.b, self.gs, self.bs)

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
    ((K.I_RE,), partial(_BranchRows, formula=_i_re)),
    ((K.I_IM,), partial(_BranchRows, formula=_i_im)),
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
    is the curved rows' Hessian pattern (``curvature_pattern``).
    Injection rows read ``net.admittance``; DC rows are ``dc_rows`` on
    the angle columns.  A branch row on a missing or parallel branch, a
    bus row outside 1..N and a DC row on a zero-reactance branch are
    InputErrors.
    """

    def __init__(self, net: NetworkModel, placements):
        loc = (placements if isinstance(placements, Locations)
               else locate_placements(net, placements))
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
        # Entries are computed group by group; _order puts them in CSR order.
        self._order = np.lexsort((cols, rows))
        self.indices = cols[self._order]
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(rows, minlength=self.m))])
        self._curved_groups = [grp for grp in self._groups
                               if isinstance(grp, _BranchRows) and grp.hessian is not None]
        patterns = [grp.curvature_pattern() for grp in self._curved_groups]
        # (row, column a, column b) of each upper Hessian entry of a curved row
        self.curvature_pattern = tuple(np.concatenate([p[k] for p in patterns] + empty)
                                       for k in range(3))

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
    i, j, g, b, gs, bs = _end_params(loc, cur)
    im = code[cur] == 3
    # I = (y + ys) V_i - y V_j over (Re V_i, Im V_i, Re V_j, Im V_j)
    data = np.concatenate([
        np.ones(volt.size),
        np.where(im, b + bs, g + gs), np.where(im, g + gs, -(b + bs)),
        np.where(im, -b, -g), np.where(im, -g, b)])
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

    The series susceptance neglects resistance, b = -1/x.  An injection
    row has b at each neighbour's column, one entry per incident branch
    end, and minus their sum on its own bus, both in the order of
    ``net.directed_ends.incident``.
    """
    net = loc.net
    n = net.n_buses
    code = _DC_CODE[loc.codes]
    x = net.branch_table[:, 6]
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
    zero = x[branch] == 0.0
    if zero.any():
        # The first offending entry in row order, as the rows are built.
        rows = np.concatenate([flow, inj[owner]])
        pos = np.concatenate([np.zeros(flow.size, dtype=int), rank])
        first = np.lexsort((pos, rows))
        br = net.branches[branch[first[np.argmax(zero[first])]]]
        raise InputError(
            f"branch {br.from_bus}-{br.to_bus} has zero reactance; the DC "
            "model cannot represent it")
    b = -1.0 / x[branch]
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

def evaluate_values(net: NetworkModel, x: StateVector, placements) -> np.ndarray:
    """h(x) at a polar state for (kind, at) placements of any kind, by
    one kernel call.  DC kinds are the DC family's rows applied to the
    state angles.  Current magnitude and angle values never raise.
    """
    return MeasurementKernel(net, placements).values(x)


def evaluate_value(net: NetworkModel, x: StateVector, kind: MeasurementKind,
                   at: tuple[int, ...]) -> float:
    """Value of any measurement function at a polar state; see
    evaluate_values."""
    return float(evaluate_values(net, x, [(kind, tuple(at))])[0])
