"""Measurement sets stored as columns, variances, and covariance handling.

A MeasurementSet keeps its rows as numpy columns (kind codes, an
(m, 2) location array, values, variances, correlated row pairs and
their covariances), built and validated once by the loader or the
synthesizer.  Row order is the order of the input file; it is the row
order of z, h(x), the Jacobian, and the covariance everywhere else in
the package.  ``locate`` resolves every row against a network in one
vectorized pass.  Rectangular phasor pairs may carry a cross-covariance
(recorded under "correlations" in the file) because PMU errors live in
polar coordinates and correlate after conversion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from .documents import arrays, fields, read_json, reals, rows, strings
from .errors import InputError, NonPositiveVariance
from .network import NetworkModel, end_error
from .states import wrap_angle


class MeasurementKind(str, Enum):
    # legacy (SCADA) kinds
    P_FLOW = "P_flow"
    Q_FLOW = "Q_flow"
    I_MAG = "I_mag"
    P_INJ = "P_inj"
    Q_INJ = "Q_inj"
    V_MAG = "V_mag"
    # phasor kinds, polar coordinates
    V_MAG_PMU = "V_mag_pmu"
    V_ANG_PMU = "V_ang_pmu"
    I_MAG_PMU = "I_mag_pmu"
    I_ANG_PMU = "I_ang_pmu"
    # phasor kinds, rectangular coordinates
    V_RE = "V_re"
    V_IM = "V_im"
    I_RE = "I_re"
    I_IM = "I_im"
    # DC kinds
    P_FLOW_DC = "P_flow_dc"
    P_INJ_DC = "P_inj_dc"
    THETA = "Theta"

    def __str__(self):
        return self.value


LEGACY_KINDS = frozenset({
    MeasurementKind.P_FLOW, MeasurementKind.Q_FLOW, MeasurementKind.I_MAG,
    MeasurementKind.P_INJ, MeasurementKind.Q_INJ, MeasurementKind.V_MAG,
})
PHASOR_POLAR_KINDS = frozenset({
    MeasurementKind.V_MAG_PMU, MeasurementKind.V_ANG_PMU,
    MeasurementKind.I_MAG_PMU, MeasurementKind.I_ANG_PMU,
})
PHASOR_RECT_KINDS = frozenset({
    MeasurementKind.V_RE, MeasurementKind.V_IM,
    MeasurementKind.I_RE, MeasurementKind.I_IM,
})
DC_KINDS = frozenset({
    MeasurementKind.P_FLOW_DC, MeasurementKind.P_INJ_DC, MeasurementKind.THETA,
})
BRANCH_KINDS = frozenset({
    MeasurementKind.P_FLOW, MeasurementKind.Q_FLOW, MeasurementKind.I_MAG,
    MeasurementKind.I_MAG_PMU, MeasurementKind.I_ANG_PMU,
    MeasurementKind.I_RE, MeasurementKind.I_IM, MeasurementKind.P_FLOW_DC,
})
ANGLE_KINDS = frozenset({
    MeasurementKind.V_ANG_PMU, MeasurementKind.I_ANG_PMU, MeasurementKind.THETA,
})


KINDS = tuple(MeasurementKind)
# Keyed by tag; a MeasurementKind finds its code too, as it is its tag.
KIND_CODE = {kind.value: code for code, kind in enumerate(KINDS)}


def kind_mask(kinds) -> np.ndarray:
    """Lookup table over kind codes: True for the codes of ``kinds``."""
    return np.array([kind in kinds for kind in KINDS])


IS_BRANCH = kind_mask(BRANCH_KINDS)
IS_ANGLE = kind_mask(ANGLE_KINDS)
IS_RECT = kind_mask(PHASOR_RECT_KINDS)
ARITY = np.where(IS_BRANCH, 2, 1)


def _at_tuple(code, at) -> tuple[int, ...]:
    """The location tuple of one row of an (m, 2) location array."""
    return tuple(int(i) for i in at[:ARITY[code]])


def _indices(values: list) -> np.ndarray | None:
    """values as an integer array, or None unless each is an int or a
    signed numpy integer (no bool) and all of them fit in 64 bits."""
    types = set(map(type, values))
    if not types.issubset((int,)) and (
            bool in types or not all(issubclass(t, (int, np.integer)) for t in types)):
        return None
    index = np.array(values, dtype=None if values else np.int64)
    return index if index.dtype.kind == "i" else None


def location_columns(codes: np.ndarray, ats, placement: bool = False) -> np.ndarray:
    """(m, 2) location array from per-row index sequences; bus rows
    leave 0 in the second column.  A row with the wrong number of
    indices for its kind, or with a non-integer one (see ``_indices``),
    is an InputError; with ``placement`` it is worded as for a
    scenario's placements."""
    lengths = np.fromiter(map(len, ats), dtype=np.intp, count=len(ats))
    bad = lengths != ARITY[codes]
    flat = _indices(list(itertools.chain.from_iterable(ats)))
    if flat is None:
        bad |= [_indices(list(at)) is None for at in ats]
    if bad.any():
        r = int(np.argmax(bad))
        kind, want, at = KINDS[codes[r]], ARITY[codes[r]], tuple(ats[r])
        wrong_count = len(at) != want
        if placement:
            fault = f"expected {want} index(es)" if wrong_count else "indices must be integers"
            raise InputError(f"placement {kind} at {list(at)}: {fault}")
        fault = (f"expects {want} location index(es)" if wrong_count
                 else "location indices must be integers")
        raise InputError(f"{kind} {fault}, got {at}")
    out = np.zeros((len(lengths), 2), dtype=np.int64)
    out[np.arange(2) < lengths[:, None]] = flat  # row-major: row k's indices in order
    return out


def kind_codes(tags: list, what: str) -> np.ndarray:
    """The kind codes of file tags; an unknown tag is an InputError."""
    codes = np.fromiter(map(KIND_CODE.get, tags, itertools.repeat(-1)), dtype=np.intp)
    if (codes < 0).any():
        raise InputError(f"{what} has unknown kind {tags[int(np.argmax(codes < 0))]!r}")
    return codes


def checked_values(codes: np.ndarray, at: np.ndarray, values, variances) -> np.ndarray:
    """The measurement-row validator: variances must be positive and
    finite, values finite.  Returns the values with every angle row
    outside (-pi, pi] wrapped onto it; in-range angles keep their bits."""
    values = np.asarray(values, dtype=float)
    variances = np.asarray(variances, dtype=float)
    bad = ~(variances > 0.0) | (variances == math.inf)
    if bad.any():
        r = int(np.argmax(bad))
        raise NonPositiveVariance(f"{KINDS[codes[r]]} at {_at_tuple(codes[r], at[r])}: "
                                  f"variance {float(variances[r])} must be > 0")
    bad = ~np.isfinite(values)
    if bad.any():
        r = int(np.argmax(bad))
        raise InputError(f"{KINDS[codes[r]]} at {_at_tuple(codes[r], at[r])}: "
                         f"value {float(values[r])} is not finite")
    # wrap_angle leaves (-pi, pi] alone, pi included.
    outside = IS_ANGLE[codes] & (np.abs(values) >= math.pi)
    if outside.any():
        values = values.copy()
        values[outside] = [wrap_angle(v) for v in values[outside].tolist()]
    return values


@dataclass(frozen=True)
class Measurement:
    """One measured value with its variance and device location.

    Branch kinds locate at (i, j), bus kinds at (i,).  Angle values are
    normalized to (-pi, pi] on construction.  A MeasurementSet stores
    its rows as columns and returns Measurements as row views.
    """
    kind: MeasurementKind
    at: tuple[int, ...]
    value: float
    variance: float

    @classmethod
    def view(cls, kind, at, value, variance) -> "Measurement":
        """A row of a validated MeasurementSet, built without checking
        it again."""
        row = object.__new__(cls)
        row.__dict__.update(kind=kind, at=at, value=value, variance=variance)
        return row

    def __post_init__(self):
        if self.kind not in KIND_CODE:
            raise InputError(f"unknown measurement kind {self.kind!r}")
        codes = np.array([KIND_CODE[self.kind]])
        at = location_columns(codes, [self.at])
        value = checked_values(codes, at, [self.value], [self.variance])[0]
        object.__setattr__(self, "value", float(value))


@dataclass(frozen=True)
class Correlation:
    """Cross-covariance between two rows of the measurement set."""
    rows: tuple[int, int]
    cov: float


class MeasurementSet:
    """Measurement rows stored as columns, plus pair correlations.

    Per row: ``codes`` (kind codes, indices into KINDS), ``at`` (an
    (m, 2) location array, 0 in the second column of bus rows) and the
    arrays returned by ``values()`` and ``variances()``.  Correlated
    row pairs are the (c, 2) array ``pairs`` with covariances ``covs``.
    The columns are validated once, are read-only, and never change.
    Indexing and iteration give Measurement row views.
    """

    def __init__(self, measurements, correlations=()):
        rows = tuple(measurements)
        corr = tuple(correlations)
        codes = np.array([KIND_CODE[m.kind] for m in rows], dtype=np.intp)
        self._set_columns(
            codes, location_columns(codes, [m.at for m in rows]),
            [m.value for m in rows], [m.variance for m in rows],
            [c.rows for c in corr], [c.cov for c in corr])

    @classmethod
    def from_columns(cls, codes, at, values, variances, pairs=(), covs=()):
        """A set built straight from its columns (see the class doc).
        Arrays passed in are taken over, not copied, and made read-only."""
        mset = cls.__new__(cls)
        mset._set_columns(np.asarray(codes, dtype=np.intp),
                          np.asarray(at, dtype=np.int64).reshape(-1, 2),
                          values, variances, pairs, covs)
        return mset

    def _set_columns(self, codes, at, values, variances, pairs, covs):
        variances = np.asarray(variances, dtype=float)
        values = checked_values(codes, at, values, variances)
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        covs = np.asarray(covs, dtype=float)
        if covs.size:
            _check_pairs(codes, pairs, covs)
        for column in (codes, at, values, variances, pairs, covs):
            column.flags.writeable = False
        self.codes, self.at, self.pairs, self.covs = codes, at, pairs, covs
        self._values, self._variances = values, variances
        self._located = None

    def __len__(self):
        return self.codes.size

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def __getitem__(self, k):
        k = range(len(self))[k]
        code = self.codes[k]
        return Measurement.view(KINDS[code], _at_tuple(code, self.at[k]),
                                float(self._values[k]), float(self._variances[k]))

    @property
    def correlations(self) -> tuple[Correlation, ...]:
        return tuple(Correlation(tuple(rows), cov) for rows, cov
                     in zip(self.pairs.tolist(), self.covs.tolist()))

    def values(self) -> np.ndarray:
        return self._values

    def variances(self) -> np.ndarray:
        return self._variances

    def kind_tags(self) -> list[str]:
        """Per row, its kind's file tag."""
        return [KINDS[c].value for c in self.codes.tolist()]

    def at_lists(self) -> list[list[int]]:
        """Per row, its location as a list of 1 or 2 bus ids."""
        return [at[:n] for at, n in zip(self.at.tolist(), ARITY[self.codes].tolist())]

    def locations(self, net: NetworkModel) -> "Locations":
        """The rows resolved against ``net``; resolved once per network
        and cached, since the set never changes."""
        if self._located is None or self._located.net is not net:
            self._located = locate(net, self.codes, self.at)
        return self._located

    def validate_against(self, net: NetworkModel):
        """Check every location against the network (unique branch for
        branch kinds, existing bus for bus kinds)."""
        self.locations(net)


def _check_pairs(codes, pairs, covs):
    """Correlated row pairs must be in range, distinct, rectangular
    phasor rows, listed once, with finite covariances."""
    m = codes.size
    bad = ~np.isfinite(covs)
    if bad.any():
        c = int(np.argmax(bad))
        raise InputError(f"correlation between rows {tuple(pairs[c].tolist())}: "
                         f"cov {float(covs[c])} is not finite")
    lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
    bad = (lo < 0) | (hi >= m) | (lo == hi)
    if bad.any():
        raise InputError(f"correlation rows {tuple(pairs[np.argmax(bad)].tolist())} "
                         "out of range")
    bad = ~(IS_RECT[codes[lo]] & IS_RECT[codes[hi]])
    if bad.any():
        a, b = pairs[np.argmax(bad)].tolist()
        raise InputError(
            f"correlation between rows {(a, b)} ({KINDS[codes[a]]}, "
            f"{KINDS[codes[b]]}): only rectangular phasor rows may be correlated")
    c = _first_repeat(lo * m + hi)
    if c >= 0:
        raise InputError(f"duplicate correlation for rows {(int(lo[c]), int(hi[c]))}")


def _first_repeat(keys: np.ndarray) -> int:
    """Position of the first entry equal to an earlier one, else -1."""
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():
        return -1
    _, first = np.unique(keys, return_index=True)
    again = np.ones(keys.size, dtype=bool)
    again[first] = False
    return int(np.argmax(again))


@dataclass(frozen=True, eq=False)
class Locations:
    """Measurement rows resolved against one network.

    Per row: the kind code and location of the set, then ``i``, the
    0-based bus of a bus row or the near end of a branch row, and for
    branch rows ``j``, the 0-based far end, ``branch``, the branch's
    position in ``net.branches``, and ``reverse``, whether (i, j) runs
    against its stored orientation.  Bus rows hold -1, -1 and False
    there.
    """
    net: NetworkModel
    codes: np.ndarray
    at: np.ndarray
    i: np.ndarray
    j: np.ndarray
    branch: np.ndarray
    reverse: np.ndarray

    def take(self, rows) -> "Locations":
        """The resolved rows at the given positions, in that order."""
        return Locations(self.net, self.codes[rows], self.at[rows], self.i[rows],
                         self.j[rows], self.branch[rows], self.reverse[rows])


def locate(net: NetworkModel, codes: np.ndarray, at: np.ndarray,
           placement: bool = False) -> Locations:
    """Resolve every row's location against the network in one pass.

    The first row with a bus outside 1..N, or whose branch ends are
    joined by no branch or by parallel branches, is an InputError.
    With ``placement`` the message starts "placement <kind> at <at>:",
    as for a scenario's placements.
    """
    k, reverse, hits = net.lookup_ends(at[:, 0], at[:, 1])
    is_branch = IS_BRANCH[codes]
    ok = np.where(is_branch, hits == 1, (at[:, 0] >= 1) & (at[:, 0] <= net.n_buses))
    if not ok.all():
        r = int(np.argmax(~ok))
        kind, where = KINDS[codes[r]], _at_tuple(codes[r], at[r])
        if is_branch[r]:
            reason = str(end_error(*where, int(hits[r])))
        else:
            reason = "bus does not exist"
        if placement:
            raise InputError(f"placement {kind} at {list(where)}: {reason}")
        raise InputError(reason if is_branch[r] else f"{kind} at {where}: {reason}")
    return Locations(net, codes, at, at[:, 0] - 1, at[:, 1] - 1, k, reverse)


def polar_to_rect_variance(z_mag, v_mag, z_ang, v_ang):
    """Second-order propagation of polar phasor variances to rectangular.

    Given a measured magnitude/angle pair and their variances, returns
    (v_re, v_im, cov_re_im) of the converted real/imaginary pair.  Along
    the measured angle the variance is v_mag; across it, it is
    v_ang * (z_mag**2 + v_mag): the first-order v_ang * z_mag**2 plus the
    second moment of the magnitude error turned by the angle error
    (Lerro & Bar-Shalom, "Tracking with debiased consistent converted
    measurements versus EKF", IEEE Trans. AES, 1993).  The first-order
    block's determinant, v_mag * v_ang * z_mag**2, goes to 0 with the
    measured magnitude, whose angle then carries no information, and its
    inverse weighs the across component as nearly exact.  This block's
    determinant is v_mag * v_ang * (z_mag**2 + v_mag), never below
    v_mag**2 * v_ang, so it is positive definite and its condition stays
    below about 1/v_ang where v_ang < 1.  Works elementwise on arrays.
    """
    if np.any(np.asarray(v_mag) <= 0.0) or np.any(np.asarray(v_ang) <= 0.0):
        raise NonPositiveVariance("polar variances must be > 0")
    c, s = np.cos(z_ang), np.sin(z_ang)
    across = v_ang * (z_mag * z_mag + v_mag)
    v_re = v_mag * c * c + across * s * s
    v_im = v_mag * s * s + across * c * c
    cov = (v_mag - across) * s * c
    return v_re, v_im, cov


class InversePattern:
    """The CSR pattern of R^-1 for m rows and the correlated blocks
    (a[k], b[k]): the diagonal, and (a[k], b[k]) and (b[k], a[k]) for
    every block.  A row in more than one block is an InputError.

    ``source`` says which entry each stored entry of R^-1 holds, as a
    position in the concatenation of the m diagonal entries, the (a, b)
    entries and the (b, a) entries.  The pattern is the one a COO -> CSR
    conversion of those entries gives, so ``matrix`` fills R^-1 with the
    bits that conversion gives.  Its arrays are read-only: a measurement
    layout keeps one pattern, and every CovarianceModel of the layout
    shares it (``CovarianceModel.on_pattern``).
    """

    def __init__(self, m: int, a: np.ndarray, b: np.ndarray):
        rows = np.stack([a, b], axis=1).ravel()
        r = _first_repeat(rows)
        if r >= 0:
            raise InputError(f"row {rows[r]} appears in more than one correlated block")
        self.m, self.a, self.b = m, a, b
        diag = np.arange(m)
        source = coo_matrix((np.arange(m + 2 * a.size, dtype=float),
                             (np.concatenate([diag, a, b]), np.concatenate([diag, b, a]))),
                            shape=(m, m)).tocsr()
        self.indptr, self.indices = source.indptr, source.indices
        self.source = source.data.astype(np.intp)
        for array in (a, b, self.indptr, self.indices, self.source):
            array.flags.writeable = False

    @property
    def nnz(self) -> int:
        return self.indices.size

    def matrix(self, diag: np.ndarray, off: np.ndarray) -> csr_matrix:
        """R^-1 with diag on the diagonal and off at (a, b) and (b, a)."""
        data = np.concatenate([diag, off, off])[self.source]
        return csr_matrix((data, self.indices, self.indptr), shape=(self.m, self.m))


class CovarianceModel:
    """Diagonal variances plus optional symmetric 2x2 pair blocks.

    The model is immutable; R^-1 and the whitener are built on first use
    and cached, so every Gauss-Newton iteration and objective evaluation
    shares one matrix.  Callers must not modify the returned matrices.
    R^-1's pattern (``InversePattern``) depends only on the rows and the
    blocks, so a model may take it from a measurement layout
    (``on_pattern``) and fill only the numbers; a model built from its
    blocks builds its own.

    A block is taken as stated, as a file from another converter states
    it: no meter bound is applied, since a rectangular block no longer
    tells its polar variances apart.  A block is refused as not positive
    definite (NonPositiveVariance) where its determinant
    va vb - cov^2 is not above 4 eps va vb: rounding the two products
    moves it by up to about eps va vb, so there its sign and the block's
    inverse are noise.  A block above that bound is used however near
    singular it is; where its weights make the gain fail the pivot test,
    the solve refuses it with SingularGain.
    """

    def __init__(self, variances: np.ndarray, blocks=()):
        # (row_a, row_b, cov) per block, as three columns
        table = np.asarray(blocks, dtype=float).reshape(-1, 3)
        a, b = table[:, 0].astype(np.intp), table[:, 1].astype(np.intp)
        self._fill(variances, a, b, table[:, 2])
        self.pattern = InversePattern(self.m, a, b)

    @classmethod
    def on_pattern(cls, pattern: InversePattern, variances: np.ndarray,
                   covs: np.ndarray) -> "CovarianceModel":
        """The model of the variances and of the block covariances covs,
        in the order of the pattern's blocks, on that pattern."""
        model = cls.__new__(cls)
        model._fill(variances, pattern.a, pattern.b, covs)
        model.pattern = pattern
        return model

    def _fill(self, variances, a, b, cov):
        """Check and keep the numbers: the variances and the blocks'
        rows a, b and covariances cov."""
        variances = np.asarray(variances, dtype=float)
        if not np.all(variances > 0.0) or not np.all(np.isfinite(variances)):
            raise NonPositiveVariance(
                "covariance diagonal must be positive and finite")
        self.variances = variances
        self._a, self._b, self._cov = a, b, np.asarray(cov, dtype=float)
        product = variances[a] * variances[b]
        bad = ~(product - self._cov * self._cov > 4.0 * np.finfo(float).eps * product)
        if bad.any():
            k = int(np.argmax(bad))
            raise NonPositiveVariance(f"correlated block for rows ({a[k]}, "
                                      f"{b[k]}) is not positive definite")
        self._inverse = None
        self._whitener = None

    @property
    def m(self) -> int:
        return self.variances.size

    @property
    def blocks(self) -> tuple[tuple[int, int, float], ...]:
        """The correlated blocks as (row_a, row_b, cov) triples."""
        return tuple(zip(self._a.tolist(), self._b.tolist(), self._cov.tolist()))

    @property
    def is_diagonal(self) -> bool:
        return self._cov.size == 0

    def _block_arrays(self):
        """Block rows a, b and covariances, plus the variances of both
        rows."""
        return (self._a, self._b, self._cov,
                self.variances[self._a], self.variances[self._b])

    def inverse(self) -> csr_matrix:
        """Sparse R^-1 on its pattern: elementwise reciprocals on the
        diagonal, closed form 2x2 inverses for the correlated blocks."""
        if self._inverse is None:
            a, b, cov, va, vb = self._block_arrays()
            det = va * vb - cov * cov
            diag = 1.0 / self.variances
            diag[a] = vb / det
            diag[b] = va / det
            self._inverse = self.pattern.matrix(diag, -cov / det)
        return self._inverse

    def whitener(self) -> csr_matrix:
        """Sparse W with W R W^T = I, used by the orthogonal solver path.

        Rows of W are inverse Cholesky factors: 1/sigma on the diagonal,
        closed-form 2x2 lower-triangular inverses for the blocks.
        """
        if self._whitener is None:
            a, b, cov, va, vb = self._block_arrays()
            # Cholesky of [[va, cov], [cov, vb]] = [[l11, 0], [l21, l22]]
            l11 = np.sqrt(va)
            l21 = cov / l11
            l22 = np.sqrt(vb - l21 * l21)
            diag = 1.0 / np.sqrt(self.variances)
            diag[a] = 1.0 / l11
            diag[b] = 1.0 / l22
            m, rows = self.m, np.arange(self.m)
            self._whitener = coo_matrix(
                (np.concatenate([diag, -l21 / (l11 * l22)]),
                 (np.concatenate([rows, b]), np.concatenate([rows, a]))),
                shape=(m, m)).tocsr()
        return self._whitener


_ROW = {"kind": strings, "at": arrays, "value": reals, "variance": reals}
_CORRELATION = {"rows": partial(arrays, length=2), "cov": reals}
_FILE = {"measurements": arrays, "correlations": (arrays, [])}


def measurements_from_dict(doc: dict) -> MeasurementSet:
    """A MeasurementSet from a measurement document under the rules of
    ``documents``; every other row rule, finiteness included, is left to
    the set's own validator, which names the offending row."""
    doc = fields(doc, "measurement-file", _FILE)
    kinds, ats, values, variances = rows(doc["measurements"], "measurement", _ROW).values()
    pairs, covs = rows(doc["correlations"], "correlation", _CORRELATION).values()
    pairs = _indices(list(itertools.chain.from_iterable(pairs)))
    if pairs is None:
        raise InputError("correlation 'rows' must hold integers")
    codes = kind_codes(kinds, "measurement")
    return MeasurementSet.from_columns(codes, location_columns(codes, ats),
                                       values, variances, pairs, covs)


def measurements_to_dict(mset: MeasurementSet) -> dict:
    """Serialize a measurement set; values keep full float precision so
    a write/reload round trip is exact."""
    doc = {"measurements": [
        {"kind": kind, "at": at, "value": value, "variance": variance}
        for kind, at, value, variance in zip(
            mset.kind_tags(), mset.at_lists(), mset.values().tolist(),
            mset.variances().tolist())
    ]}
    if len(mset.covs):
        doc["correlations"] = [
            {"rows": rows, "cov": cov}
            for rows, cov in zip(mset.pairs.tolist(), mset.covs.tolist())
        ]
    return doc


def load_measurements(path) -> MeasurementSet:
    """Load and validate a measurement JSON file."""
    return measurements_from_dict(read_json(path, "measurement file"))
