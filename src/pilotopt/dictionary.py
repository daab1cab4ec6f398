"""Quantized delay-angle grids and the dictionaries of the virtual channel.

The channel is expanded on a 3-D grid (delay, AoD, AoA). Flat grid-point
indices follow ``g = g_tau * (G_phi * G_theta) + g_phi * G_theta + g_theta``
(0-based), which is exactly the column order of the Kronecker product
``B x conj(A_t) x A_r``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig, delay_response, steering_vector

__all__ = [
    "GridSpec",
    "DictionarySet",
    "make_grids",
    "build_dictionaries",
    "decode_grid_index",
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

    @property
    def total(self) -> int:
        return self.g_theta * self.g_phi * self.g_tau


@dataclass(frozen=True)
class DictionarySet:
    """Grid values and the three dictionary matrices built on them."""

    theta_grid: np.ndarray  # (G_theta,) AoA radians
    phi_grid: np.ndarray  # (G_phi,) AoD radians
    tau_grid: np.ndarray  # (G_tau,) seconds
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


def make_grids(
    spec: GridSpec, config: SystemConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (theta, phi, tau) grid values.

    Angles place the sine uniformly on [-1, 1): ``asin(-1 + 2*(g-1)/G)``.
    Delays are linear on [0, max_delay_s]. Note the angle grids never reach
    +pi/2; the sine argument tops out at ``1 - 2/G``.
    """
    g = np.arange(spec.g_theta)
    theta = np.arcsin(-1.0 + 2.0 * g / spec.g_theta)
    g = np.arange(spec.g_phi)
    phi = np.arcsin(-1.0 + 2.0 * g / spec.g_phi)
    g = np.arange(spec.g_tau)
    tau = config.max_delay_s * g / (spec.g_tau - 1)
    return theta, phi, tau


def build_dictionaries(spec: GridSpec, config: SystemConfig) -> DictionarySet:
    """Evaluate the steering/delay responses on every grid point."""
    theta, phi, tau = make_grids(spec, config)
    a_r = np.stack(
        [steering_vector(t, config.num_rx, config.rx_spacing_wavelengths) for t in theta],
        axis=1,
    )
    a_t = np.stack(
        [steering_vector(p, config.num_tx, config.tx_spacing_wavelengths) for p in phi],
        axis=1,
    )
    b = np.stack([delay_response(d, config) for d in tau], axis=1)
    return DictionarySet(theta_grid=theta, phi_grid=phi, tau_grid=tau, a_r=a_r, a_t=a_t, b=b)


def decode_grid_index(g: int, spec: GridSpec) -> tuple[int, int, int]:
    """Split a dictionary column index into (g_tau, g_phi, g_theta).

    Inverts ``g = (g_tau * G_phi + g_phi) * G_theta + g_theta``.
    """
    if not 0 <= g < spec.total:
        raise ValueError("grid index out of range")
    g_theta = g % spec.g_theta
    rest = g // spec.g_theta
    return rest // spec.g_phi, rest % spec.g_phi, g_theta
