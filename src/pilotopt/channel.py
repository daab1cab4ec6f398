"""Frequency-selective MIMO-OFDM channel synthesis.

Uniform-linear-array steering vectors, per-subcarrier delay responses,
Rician path sampling, and assembly of per-subcarrier channel matrices laid
out as the stacked channel vector consumed by the sparse-recovery pipeline.

Conventions used throughout the package: all indices are 0-based and
vectorization is column-major (``ravel(order="F")``), i.e. the receive
antenna index varies fastest, then the transmit antenna, then the
subcarrier.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "SystemConfig",
    "ChannelRealization",
    "ChannelVector",
    "steering_vector",
    "delay_response",
    "subcarrier_offsets",
    "sample_channel",
    "assemble_channel",
]


# Factor between the largest float and the largest Nr * Nt * total_power; see SystemConfig.
_POWER_HEADROOM = 2.0**10


def _exceeds_array_limit(*shape: int, dtype=complex) -> bool:
    """Whether numpy refuses one array of this shape and dtype as too big to index."""
    return math.prod(shape) * np.dtype(dtype).itemsize > np.iinfo(np.intp).max


@dataclass(frozen=True)
class SystemConfig:
    """MIMO-OFDM link and pilot-budget parameters.

    ``seq_len`` is the number of pilot symbols per subcarrier and
    ``total_power`` the power budget shared by all pilot blocks, at most
    float max / (2^10 Nr Nt). Pilots of total power Pt give sensing-matrix
    columns of squared norm up to Nr Nt Pt, and a measurement ``y_k = H_k
    X_k`` of squared norm up to Nr Nt Pt (sum_l |g_l|)^2 over the path gains;
    the 2^10 leaves room for the gains, whose squares sum to 1 in
    expectation, and for noise down to -30 dB SNR.
    """

    bandwidth_hz: float
    num_subcarriers: int
    num_tx: int
    num_rx: int
    seq_len: int
    total_power: float
    num_delay_taps: int
    tx_spacing_wavelengths: float = 0.5
    rx_spacing_wavelengths: float = 0.5

    def __post_init__(self) -> None:
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self) if f.type == "float"):
            raise ValueError("system float parameters must be finite")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        if self.num_subcarriers < 1:
            raise ValueError("num_subcarriers must be >= 1")
        if self.num_tx < 1 or self.num_rx < 1:
            raise ValueError("antenna counts must be >= 1")
        if self.seq_len < 1:
            raise ValueError("seq_len must be >= 1")
        if self.total_power <= 0:
            raise ValueError("total_power must be positive")
        if self.tx_spacing_wavelengths <= 0 or self.rx_spacing_wavelengths <= 0:
            raise ValueError("antenna spacings must be positive")
        if not 1 <= self.num_delay_taps <= self.num_subcarriers:
            raise ValueError("num_delay_taps must be in [1, num_subcarriers]")
        if _exceeds_array_limit(self.num_subcarriers, self.num_tx, max(self.num_rx, self.seq_len)):
            raise ValueError("the (K, Nr, Nt) channel or (K, Nt, M) pilot array is too large")
        power_limit = sys.float_info.max / (_POWER_HEADROOM * self.num_rx * self.num_tx)
        if self.total_power > power_limit:
            raise ValueError(f"total_power must be at most float max / (2^10 num_rx num_tx) "
                             f"= {power_limit!r}")
        # The dictionary phases' largest factors, each evaluated as this module
        # evaluates it: k * B overflows first at the last subcarrier.
        b, two_pi = self.bandwidth_hz, 2.0 * np.pi
        offsets = (-b / 2.0, -b / 2.0 + (self.num_subcarriers - 1) * b / self.num_subcarriers)
        phase_factors = (self.max_delay_s, *(two_pi * f for f in offsets),
                         two_pi * self.tx_spacing_wavelengths * (self.num_tx - 1),
                         two_pi * self.rx_spacing_wavelengths * (self.num_rx - 1))
        if not all(map(math.isfinite, phase_factors)):
            raise ValueError("bandwidth or antenna spacing overflows the delay or steering phases")

    @property
    def max_delay_s(self) -> float:
        """Largest resolvable path delay, (num_delay_taps - 1) / bandwidth."""
        return (self.num_delay_taps - 1) / self.bandwidth_hz


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the multipath channel: per-path angles, delays, gains."""

    aoas: np.ndarray
    aods: np.ndarray
    delays: np.ndarray
    gains: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.aoas)
        if n < 1:
            raise ValueError("a realization needs at least one path")
        if not (len(self.aods) == len(self.delays) == len(self.gains) == n):
            raise ValueError("path arrays must share one length")
        if np.any(self.delays < 0):
            raise ValueError("delays must be non-negative")
        for name in ("aoas", "aods", "delays"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if not np.all(np.isfinite(self.gains)):
            raise ValueError("gains must be finite")


@dataclass(frozen=True)
class ChannelVector:
    """Per-subcarrier channel matrices, stored in stacked-vector order.

    ``per_subcarrier`` is (K, Nr, Nt); its memory is the C-order (K, Nt, Nr)
    buffer whose flat view is ``stacked``, so
    ``stacked[k*Nr*Nt + t*Nr + r] == per_subcarrier[k, r, t]`` (column-major
    vec of each Nr x Nt matrix, concatenated over subcarriers) without a copy.
    """

    per_subcarrier: np.ndarray  # (K, Nr, Nt) complex

    def __post_init__(self) -> None:
        h = np.asarray(self.per_subcarrier, dtype=complex)
        if h.ndim != 3:
            raise ValueError("per_subcarrier must have shape (K, Nr, Nt)")
        buffer = np.ascontiguousarray(h.transpose(0, 2, 1))  # no copy if already laid out
        object.__setattr__(self, "per_subcarrier", buffer.transpose(0, 2, 1))

    @property
    def stacked(self) -> np.ndarray:
        """The (Nr*Nt*K,) stacked channel vector, a view of ``per_subcarrier``."""
        return self.per_subcarrier.transpose(0, 2, 1).reshape(-1)


def steering_vector(angles, n: int, spacing: float) -> np.ndarray:
    """ULA array response: element i is exp(j*2*pi*spacing*i*sin(angle)).

    An array of ``angles`` gives one column per angle. ``spacing`` is the
    antenna spacing in carrier wavelengths.
    """
    if n < 1:
        raise ValueError("antenna count must be >= 1")
    if not np.all(np.isfinite(angles)):
        raise ValueError("angle must be finite")
    return np.exp(1j * np.multiply.outer(2.0 * np.pi * spacing * np.arange(n), np.sin(angles)))


def subcarrier_offsets(config: SystemConfig) -> np.ndarray:
    """Baseband frequency offsets: -B/2 + k*B/K for k = 0..K-1."""
    k = np.arange(config.num_subcarriers)
    return -config.bandwidth_hz / 2.0 + k * config.bandwidth_hz / config.num_subcarriers


def delay_response(delays, config: SystemConfig) -> np.ndarray:
    """Per-subcarrier phase ramp exp(-j*2*pi*offset_k*delay), length K.

    An array of delays gives one column per delay.
    """
    delays = np.asarray(delays, dtype=float)
    if not np.all(np.isfinite(delays)):
        raise ValueError("delay must be finite")
    if np.any(delays < 0):
        raise ValueError("delay must be non-negative")
    return np.exp(np.multiply.outer(-2j * np.pi * subcarrier_offsets(config), delays))


def sample_channel(
    config: SystemConfig,
    num_paths: int,
    rician_k_db: float,
    rng_seed,
) -> ChannelRealization:
    """Draw a Rician multipath realization.

    Angles are uniform on [-pi/2, pi/2), delays uniform on
    [0, max_delay_s). Path 0 is the LoS path with gain variance
    Kf/(Kf+1); the remaining paths share variance 1/((Kf+1)(L-1)),
    so the total expected power is 1.
    """
    if num_paths < 1:
        raise ValueError("num_paths must be >= 1")
    rng = np.random.default_rng(rng_seed)
    aoas = rng.uniform(-np.pi / 2, np.pi / 2, num_paths)
    aods = rng.uniform(-np.pi / 2, np.pi / 2, num_paths)
    delays = rng.uniform(0.0, config.max_delay_s, num_paths)

    k_factor = 10.0 ** (rician_k_db / 10.0)
    variances = np.empty(num_paths)
    variances[0] = k_factor / (k_factor + 1.0)
    if num_paths > 1:
        variances[1:] = 1.0 / ((k_factor + 1.0) * (num_paths - 1))
    scale = np.sqrt(variances / 2.0)
    gains = scale * (rng.standard_normal(num_paths) + 1j * rng.standard_normal(num_paths))
    return ChannelRealization(aoas=aoas, aods=aods, delays=delays, gains=gains)


def assemble_channel(realization: ChannelRealization, config: SystemConfig) -> ChannelVector:
    """Sum the paths into per-subcarrier matrices ``A_r diag(w_k) A_t^H``.

    ``w_k`` holds each path's gain times its delay phase on subcarrier ``k``.
    """
    a_r = steering_vector(realization.aoas, config.num_rx, config.rx_spacing_wavelengths)
    a_t = steering_vector(realization.aods, config.num_tx, config.tx_spacing_wavelengths)
    return sum_atoms(a_r, a_t, delay_response(realization.delays, config) * realization.gains)


def sum_atoms(a_r: np.ndarray, a_t: np.ndarray, weights: np.ndarray) -> ChannelVector:
    """``A_r diag(w_k) A_t^H`` for each row ``w_k`` of the (K, L) ``weights``.

    One batched product writes every subcarrier, through a transposed view,
    into the buffer that is already in stacked-vector order.
    """
    buffer = np.empty((weights.shape[0], a_t.shape[0], a_r.shape[0]), dtype=complex)
    np.matmul(a_r * weights[:, None, :], a_t.conj().T, out=buffer.transpose(0, 2, 1))
    return ChannelVector(per_subcarrier=buffer.transpose(0, 2, 1))
