"""State vectors in polar and rectangular coordinates.

A state holds 2N reals for an N-bus network.  Polar states store
(theta_1..theta_N, V_1..V_N); rectangular states store
(Re V_1..Re V_N, Im V_1..Im V_N).  One entry is pinned to the slack
bus: the slack angle in polar coordinates, the slack imaginary part in
rectangular coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, InputError, ZeroMagnitude

POLAR = "polar"
RECTANGULAR = "rectangular"

_TAU = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Map an angle to the principal branch (-pi, pi]."""
    w = math.remainder(a, _TAU)
    if w <= -math.pi:
        w += _TAU
    return w


def wrap_angles(a: np.ndarray) -> np.ndarray:
    """Vectorized :func:`wrap_angle`."""
    w = np.mod(np.asarray(a, dtype=float) + np.pi, _TAU) - np.pi
    return np.where(w == -np.pi, np.pi, w)


class StateVector:
    """2N-real state with a pinned slack entry.

    The values array is owned by the instance and mutated in place by
    the solvers; everything else is fixed at construction.
    """

    def __init__(self, coordinates: str, values, slack_bus: int, slack_value: float = 0.0):
        if coordinates not in (POLAR, RECTANGULAR):
            raise ValueError(f"unknown coordinate system {coordinates!r}")
        values = np.array(values, dtype=float)
        if values.ndim != 1 or values.size % 2 != 0 or values.size == 0:
            raise DimensionMismatch(f"state needs 2N values, got shape {values.shape}")
        n = values.size // 2
        if not 1 <= slack_bus <= n:
            raise InputError(f"slack bus {slack_bus} out of range 1..{n}")
        if coordinates == POLAR and np.any(values[n:] <= 0.0):
            raise ZeroMagnitude("polar state requires positive voltage magnitudes")
        self.coordinates = coordinates
        self.values = values
        self.slack_bus = slack_bus
        self.slack_value = float(slack_value)
        self.values[self.slack_index] = self.slack_value

    @classmethod
    def flat(cls, n_buses: int, slack_bus: int, slack_value: float = 0.0,
             coordinates: str = POLAR) -> "StateVector":
        """All magnitudes one, all angles zero (slack entry pinned)."""
        if coordinates == POLAR:
            values = np.concatenate([np.zeros(n_buses), np.ones(n_buses)])
        else:
            values = np.concatenate([np.ones(n_buses), np.zeros(n_buses)])
        return cls(coordinates, values, slack_bus, slack_value)

    @property
    def n_buses(self) -> int:
        return self.values.size // 2

    @property
    def slack_index(self) -> int:
        """Index of the pinned entry: slack angle (polar) or slack
        imaginary part (rectangular)."""
        if self.coordinates == POLAR:
            return self.slack_bus - 1
        return self.n_buses + self.slack_bus - 1

    # Views into the shared values array; writes pass through.
    @property
    def angles(self) -> np.ndarray:
        assert self.coordinates == POLAR
        return self.values[: self.n_buses]

    @property
    def magnitudes(self) -> np.ndarray:
        assert self.coordinates == POLAR
        return self.values[self.n_buses:]

    @property
    def re(self) -> np.ndarray:
        assert self.coordinates == RECTANGULAR
        return self.values[: self.n_buses]

    @property
    def im(self) -> np.ndarray:
        assert self.coordinates == RECTANGULAR
        return self.values[self.n_buses:]

    def complex_voltages(self) -> np.ndarray:
        if self.coordinates == POLAR:
            return self.magnitudes * np.exp(1j * self.angles)
        return self.re + 1j * self.im

    def copy(self) -> "StateVector":
        return StateVector(self.coordinates, self.values.copy(),
                           self.slack_bus, self.slack_value)

    def __repr__(self):
        return (f"StateVector({self.coordinates}, n={self.n_buses}, "
                f"slack={self.slack_bus})")


def to_rectangular(s: StateVector) -> StateVector:
    """Convert a polar state to rectangular coordinates.

    The pinned value of the result is the imaginary part of the slack
    bus voltage.
    """
    if s.coordinates != POLAR:
        raise ValueError("to_rectangular expects a polar state")
    re = s.magnitudes * np.cos(s.angles)
    im = s.magnitudes * np.sin(s.angles)
    slack_im = im[s.slack_bus - 1]
    return StateVector(RECTANGULAR, np.concatenate([re, im]), s.slack_bus, slack_im)


def to_polar(s: StateVector) -> StateVector:
    """Convert a rectangular state to polar coordinates.

    Raises ZeroMagnitude if any bus voltage is the zero complex number;
    angles land in (-pi, pi].
    """
    if s.coordinates != RECTANGULAR:
        raise ValueError("to_polar expects a rectangular state")
    mag = np.hypot(s.re, s.im)
    if np.any(mag == 0.0):
        zero = int(np.nonzero(mag == 0.0)[0][0]) + 1
        raise ZeroMagnitude(f"bus {zero} voltage is 0+0j")
    ang = wrap_angles(np.arctan2(s.im, s.re))
    slack_ang = ang[s.slack_bus - 1]
    return StateVector(POLAR, np.concatenate([ang, mag]), s.slack_bus, slack_ang)
