"""Quantized delay-angle grids and the dictionaries of the virtual channel.

The channel is expanded on a 3-D grid (delay, AoD, AoA). Flat grid-point
indices follow ``g = g_tau * (G_phi * G_theta) + g_phi * G_theta + g_theta``
(0-based), which is exactly the column order of the Kronecker product
``B x conj(A_t) x A_r``; ``np.unravel_index(g, (G_tau, G_phi, G_theta))``
inverts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import SystemConfig, _exceeds_array_limit, delay_response, steering_vector

__all__ = [
    "GridSpec",
    "DictionarySet",
    "make_grids",
    "build_dictionaries",
]


@dataclass(frozen=True)
class GridSpec:
    """Number of quantization points per dimension."""

    g_theta: int
    g_phi: int
    g_tau: int

    def __post_init__(self) -> None:
        if min(self.g_theta, self.g_phi) < 1:
            raise ValueError("grid sizes must be >= 1")
        if self.g_tau < 2:
            raise ValueError("g_tau must be >= 2 (delay grid needs two endpoints)")
        # OMP holds complex arrays with one entry per atom.
        if _exceeds_array_limit(self.total):
            raise ValueError(f"a grid of {self.total} atoms is too large for one array")

    @property
    def total(self) -> int:
        return self.g_theta * self.g_phi * self.g_tau


@dataclass(frozen=True)
class DictionarySet:
    """The three dictionary matrices, evaluated on ``make_grids``' grid values."""

    a_r: np.ndarray  # (Nr, G_theta)
    a_t: np.ndarray  # (Nt, G_phi)
    b: np.ndarray  # (K, G_tau)

    @property
    def spec(self) -> GridSpec:
        return GridSpec(
            g_theta=self.a_r.shape[1], g_phi=self.a_t.shape[1], g_tau=self.b.shape[1]
        )

    @property
    def num_rx(self) -> int:
        return self.a_r.shape[0]

    @property
    def num_tx(self) -> int:
        return self.a_t.shape[0]

    @property
    def num_subcarriers(self) -> int:
        return self.b.shape[0]

    @cached_property
    def delay_weights(self) -> np.ndarray:
        """Read-only (K, G_tau) delay-difference weights ``w_d[k] = conj(b_k[d]) b_k[0]``.

        The Omega Gram weights ``W[k, a, b] = conj(b_k[a]) b_k[b]`` of a
        uniform delay grid depend on ``d = a - b`` alone, so these columns
        hold all of them; computed once per dictionary set, which refuses a
        grid whose ``W`` is not Toeplitz in ``(a, b)``.
        """
        b, g_tau = self.b, self.b.shape[1]
        w_d = b.conj() * b[:, :1]
        # Delay phases reach about pi * K radians (at most K taps), and their
        # roundoff grows with them: 1e-12 alone refuses uniform grids from K ~ 1500.
        tol = max(1e-12, 16 * np.finfo(float).eps * self.num_subcarriers)
        # Lag by lag, never forming W: W[k, a + d, a] must equal w_d[k, d], W[k, a, a + d] its conjugate.
        for d in range(g_tau):
            below = b[:, d:].conj() * b[:, : g_tau - d] - w_d[:, d, None]
            above = b[:, : g_tau - d].conj() * b[:, d:] - w_d[:, d, None].conj()
            if not np.maximum(np.max(np.abs(below)), np.max(np.abs(above))) <= tol:  # refuses NaN
                raise ValueError("delay dictionary is not on a uniform grid (W is not Toeplitz)")
        w_d.flags.writeable = False
        return w_d


def make_grids(
    spec: GridSpec, config: SystemConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (theta, phi, tau) grid values.

    Angles place the sine uniformly on [-1, 1): ``asin(-1 + 2*(g-1)/G)``.
    Delays are linear on [0, max_delay_s]. Note the angle grids never reach
    +pi/2; the sine argument tops out at ``1 - 2/G``.
    """
    theta = np.arcsin(-1.0 + 2.0 * np.arange(spec.g_theta) / spec.g_theta)
    phi = np.arcsin(-1.0 + 2.0 * np.arange(spec.g_phi) / spec.g_phi)
    tau = config.max_delay_s * np.arange(spec.g_tau) / (spec.g_tau - 1)
    return theta, phi, tau


def build_dictionaries(spec: GridSpec, config: SystemConfig) -> DictionarySet:
    """Evaluate the steering/delay responses on every grid point."""
    theta, phi, tau = make_grids(spec, config)
    a_r = steering_vector(theta, config.num_rx, config.rx_spacing_wavelengths)
    a_t = steering_vector(phi, config.num_tx, config.tx_spacing_wavelengths)
    b = delay_response(tau, config)
    return DictionarySet(a_r=a_r, a_t=a_t, b=b)
