"""Typed measurement sets, variances, and covariance handling.

Measurement rows keep the order of the input file; that order is the
row order of z, h(x), the Jacobian, and the covariance everywhere else
in the package.  Rectangular phasor pairs may carry a cross-covariance
(recorded under "correlations" in the file) because PMU errors live in
polar coordinates and correlate after conversion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from .errors import InputError, NonPositiveVariance
from .network import NetworkModel
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


@dataclass(frozen=True)
class Measurement:
    """One measured value with its variance and device location.

    Branch kinds locate at (i, j), bus kinds at (i,).  Angle values are
    normalized to (-pi, pi] on construction.
    """
    kind: MeasurementKind
    at: tuple[int, ...]
    value: float
    variance: float

    def __post_init__(self):
        if self.variance <= 0.0 or not math.isfinite(self.variance):
            raise NonPositiveVariance(
                f"{self.kind} at {self.at}: variance {self.variance} must be > 0")
        if not math.isfinite(self.value):
            raise InputError(
                f"{self.kind} at {self.at}: value {self.value} is not finite")
        want = 2 if self.kind in BRANCH_KINDS else 1
        if len(self.at) != want:
            raise InputError(
                f"{self.kind} expects {want} location index(es), got {self.at}")
        if self.kind in ANGLE_KINDS:
            object.__setattr__(self, "value", wrap_angle(self.value))


@dataclass(frozen=True)
class Correlation:
    """Cross-covariance between two rows of the measurement set."""
    rows: tuple[int, int]
    cov: float

    def __post_init__(self):
        if not math.isfinite(self.cov):
            raise InputError(
                f"correlation between rows {self.rows}: cov {self.cov} is not finite")


class MeasurementSet:
    """Ordered, immutable list of measurements plus pair correlations."""

    def __init__(self, measurements, correlations=()):
        self.measurements = tuple(measurements)
        self.correlations = tuple(correlations)
        m = len(self.measurements)
        seen = set()
        for c in self.correlations:
            a, b = c.rows
            if not (0 <= a < m and 0 <= b < m) or a == b:
                raise InputError(f"correlation rows {c.rows} out of range")
            ka = self.measurements[a].kind
            kb = self.measurements[b].kind
            if ka not in PHASOR_RECT_KINDS or kb not in PHASOR_RECT_KINDS:
                raise InputError(
                    f"correlation between rows {c.rows} ({ka}, {kb}): only "
                    "rectangular phasor rows may be correlated")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise InputError(f"duplicate correlation for rows {key}")
            seen.add(key)

    def __len__(self):
        return len(self.measurements)

    def __iter__(self):
        return iter(self.measurements)

    def __getitem__(self, idx):
        return self.measurements[idx]

    def kinds(self) -> set[MeasurementKind]:
        return {m.kind for m in self.measurements}

    def values(self) -> np.ndarray:
        return np.array([m.value for m in self.measurements], dtype=float)

    def variances(self) -> np.ndarray:
        return np.array([m.variance for m in self.measurements], dtype=float)

    def validate_against(self, net: NetworkModel):
        """Check every location against the network (unique branch for
        branch kinds, existing bus for bus kinds)."""
        for m in self.measurements:
            if m.kind in BRANCH_KINDS:
                net.branch_between(*m.at)
            else:
                bus_index(net, m.kind, m.at)


def bus_index(net: NetworkModel, kind: MeasurementKind, at) -> int:
    """0-based index of the bus a bus-kind row sits at; a bus outside
    1..N is an InputError."""
    if not 1 <= at[0] <= net.n_buses:
        raise InputError(f"{kind} at {tuple(at)}: bus does not exist")
    return at[0] - 1


def polar_to_rect_variance(z_mag: float, v_mag: float, z_ang: float,
                           v_ang: float) -> tuple[float, float, float]:
    """First-order propagation of polar phasor variances to rectangular.

    Given a measured magnitude/angle pair and their variances, returns
    (v_re, v_im, cov_re_im) of the converted real/imaginary pair.  The
    resulting 2x2 block has determinant v_mag * v_ang * z_mag**2, so it
    stays positive (semi)definite.
    """
    if v_mag <= 0.0 or v_ang <= 0.0:
        raise NonPositiveVariance("polar variances must be > 0")
    c, s = math.cos(z_ang), math.sin(z_ang)
    v_re = v_mag * c * c + v_ang * (z_mag * s) ** 2
    v_im = v_mag * s * s + v_ang * (z_mag * c) ** 2
    cov = (v_mag - v_ang * z_mag * z_mag) * s * c
    return v_re, v_im, cov


class CovarianceModel:
    """Diagonal variances plus optional symmetric 2x2 pair blocks.

    The model is immutable; R^-1 and the whitener are built on first use
    and cached, so every Gauss-Newton iteration and objective evaluation
    shares one matrix.  Callers must not modify the returned matrices.
    """

    def __init__(self, variances: np.ndarray, blocks=()):
        variances = np.asarray(variances, dtype=float)
        if not np.all(variances > 0.0) or not np.all(np.isfinite(variances)):
            raise NonPositiveVariance(
                "covariance diagonal must be positive and finite")
        self.variances = variances
        self.blocks = tuple(blocks)  # (row_a, row_b, cov)
        owner = {}
        for a, b, cov in self.blocks:
            det = variances[a] * variances[b] - cov * cov
            if not det > 0.0:
                raise NonPositiveVariance(
                    f"correlated block for rows ({a}, {b}) is not positive definite")
            for r in (a, b):
                if r in owner:
                    raise InputError(f"row {r} appears in more than one correlated block")
                owner[r] = True
        self._inverse = None
        self._whitener = None

    @property
    def m(self) -> int:
        return self.variances.size

    @property
    def is_diagonal(self) -> bool:
        return not self.blocks

    def restrict(self, keep) -> "CovarianceModel":
        """Submodel over the rows where keep is True.

        Correlated blocks must not straddle the cut; row deactivation
        only ever hits diagonal (current magnitude/angle) rows.
        """
        keep = np.asarray(keep, dtype=bool)
        new_index = np.cumsum(keep) - 1
        blocks = []
        for a, b, cov in self.blocks:
            if bool(keep[a]) != bool(keep[b]):
                raise InputError("cannot split a correlated covariance block")
            if keep[a]:
                blocks.append((int(new_index[a]), int(new_index[b]), cov))
        return CovarianceModel(self.variances[keep], blocks)

    def _block_arrays(self):
        """Block rows a, b and covariances as arrays, plus the variances
        of both rows."""
        table = np.array(self.blocks, dtype=float).reshape(-1, 3)
        a = table[:, 0].astype(int)
        b = table[:, 1].astype(int)
        return a, b, table[:, 2], self.variances[a], self.variances[b]

    def _sparse(self, diag, rows, cols, off) -> csr_matrix:
        """m x m CSR matrix: diag on the diagonal, off at (rows, cols)."""
        m = self.m
        return coo_matrix(
            (np.concatenate([diag, off]),
             (np.concatenate([np.arange(m), rows]),
              np.concatenate([np.arange(m), cols]))),
            shape=(m, m)).tocsr()

    def inverse(self) -> csr_matrix:
        """Sparse R^-1: elementwise reciprocals on the diagonal, closed
        form 2x2 inverses for the correlated blocks."""
        if self._inverse is None:
            a, b, cov, va, vb = self._block_arrays()
            det = va * vb - cov * cov
            diag = 1.0 / self.variances
            diag[a] = vb / det
            diag[b] = va / det
            off = -cov / det
            self._inverse = self._sparse(diag, np.concatenate([a, b]),
                                         np.concatenate([b, a]),
                                         np.concatenate([off, off]))
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
            self._whitener = self._sparse(diag, b, a, -l21 / (l11 * l22))
        return self._whitener


_MEAS_FILE_KEYS = {"measurements", "correlations"}
_MEAS_ENTRY_KEYS = {"kind", "at", "value", "variance"}
_CORR_ENTRY_KEYS = {"rows", "cov"}


def measurements_from_dict(doc: dict) -> MeasurementSet:
    if not isinstance(doc, dict):
        raise InputError("measurement document must be a JSON object")
    unknown = set(doc) - _MEAS_FILE_KEYS
    if unknown:
        raise InputError(f"unknown measurement-file keys: {sorted(unknown)}")
    if "measurements" not in doc:
        raise InputError("measurement document needs 'measurements'")
    rows = []
    for entry in doc["measurements"]:
        bad = set(entry) - _MEAS_ENTRY_KEYS
        if bad:
            raise InputError(f"unknown measurement keys: {sorted(bad)}")
        try:
            kind = MeasurementKind(entry["kind"])
        except (ValueError, KeyError):
            raise InputError(f"unknown measurement kind tag {entry.get('kind')!r}") from None
        rows.append(Measurement(
            kind=kind,
            at=tuple(int(i) for i in entry["at"]),
            value=float(entry["value"]),
            variance=float(entry["variance"]),
        ))
    corrs = []
    for entry in doc.get("correlations", ()):
        bad = set(entry) - _CORR_ENTRY_KEYS
        if bad:
            raise InputError(f"unknown correlation keys: {sorted(bad)}")
        a, b = entry["rows"]
        corrs.append(Correlation(rows=(int(a), int(b)), cov=float(entry["cov"])))
    return MeasurementSet(rows, corrs)


def measurements_to_dict(mset: MeasurementSet) -> dict:
    """Serialize a measurement set; values keep full float precision so
    a write/reload round trip is exact."""
    doc = {"measurements": [
        {"kind": m.kind.value, "at": list(m.at), "value": m.value,
         "variance": m.variance}
        for m in mset.measurements
    ]}
    if mset.correlations:
        doc["correlations"] = [
            {"rows": list(c.rows), "cov": c.cov} for c in mset.correlations
        ]
    return doc


def load_measurements(path) -> MeasurementSet:
    """Load and validate a measurement JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read measurement file {path}: {exc}") from exc
    return measurements_from_dict(doc)
