"""Sparse channel estimation from noisy pilot measurements.

Synthesizes the stacked received pilot vector, recovers the virtual path
gains with orthogonal matching pursuit against the structured sensing
operator, and rebuilds the full channel vector from the recovered support.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .channel import ChannelVector, sum_atoms
from .coherence import PilotDesign, SensingOperator
from .dictionary import DictionarySet
from .errors import DegenerateInputError

__all__ = [
    "SparseEstimate",
    "synthesize_measurement",
    "omp_solve",
    "reconstruct_channel",
    "nmse",
    "snr_sigma2",
]

logger = logging.getLogger(__name__)

# Residuals below this fraction of ||y|| count as exactly recovered.
_RESIDUAL_REL_FLOOR = 1e-12


@dataclass(frozen=True)
class SparseEstimate:
    """OMP output: selected grid atoms, their least-squares gains, residual."""

    support: tuple[int, ...]
    coefficients: np.ndarray
    residual_norm: float

    def __post_init__(self) -> None:
        if len(set(self.support)) != len(self.support):
            raise ValueError("support indices must be unique")
        if len(self.support) != len(self.coefficients):
            raise ValueError("support and coefficients must align")


def synthesize_measurement(
    h: ChannelVector, design: PilotDesign, sigma2: float, rng_seed
) -> np.ndarray:
    """Stack vec(H_k X_k) over allocated subcarriers and add CN(0, sigma2) noise.

    Returns the (Nr * M * Q,) complex vector ``y``. Subcarrier selection is
    done by index gathering; no binary selection matrix is ever
    materialized. Deterministic for a fixed seed.
    """
    if sigma2 < 0:
        raise ValueError("sigma2 must be non-negative")
    if not design.allocation:
        raise ValueError("design has an empty allocation")
    k_total, n_r, n_t = h.per_subcarrier.shape
    if k_total != design.num_subcarriers or n_t != design.num_tx:
        raise ValueError("channel and design dimensions do not match")
    alloc = list(design.allocation)
    y = np.matmul(h.per_subcarrier[alloc], design.blocks[alloc]).transpose(0, 2, 1).ravel()
    if sigma2 > 0:
        rng = np.random.default_rng(rng_seed)
        noise = np.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size)
        )
        y = y + noise
    return y


class _ActiveSetQR:
    """QR factor of the active columns, grown by one column per OMP step.

    Each column is orthogonalized by classical Gram-Schmidt with one
    reorthogonalization; ``R^-1`` grows by one column, so the gains are
    ``R^-1 Q^H y``. The residual ``y - Q Q^H y`` is updated by ``q_s (q_s^H
    y)`` and its norm taken directly: the identity ``||y||^2 - |Q^H y|^2``
    cancels far above OMP's early-stop floor.
    """

    def __init__(self, y: np.ndarray, capacity: int):
        self._y = y
        self.residual = y.copy()
        self.size = 0
        self._q = np.empty((capacity, y.size), dtype=complex)  # rows q_s
        self._r_inv = np.zeros((capacity, capacity), dtype=complex)
        self._qy = np.empty(capacity, dtype=complex)
        # lstsq's default cut-off: singular values below eps * max(M, N) * s_max.
        self._rcond = np.finfo(float).eps * y.size
        self._fro2 = 0.0  # ||R||_F^2
        self._inv_fro2 = 0.0  # ||R^-1||_F^2

    def append(self, a: np.ndarray) -> bool:
        """Add column ``a`` and return True, or return False and leave the factor as it was.

        False means lstsq might find the grown set rank-deficient:
        ``s_min(R) >= 1 / ||R^-1||_F`` and ``s_max(R) <= ||R||_F``, so only
        a Frobenius condition below ``1 / rcond`` guarantees that its rank
        test passes.
        """
        s = self.size
        q = self._q[:s]
        h = q.conj() @ a
        v = a - q.T @ h
        h2 = q.conj() @ v
        v -= q.T @ h2
        h += h2
        rho = float(np.linalg.norm(v))
        if rho == 0.0:
            return False
        u = self._r_inv[:s, :s] @ h / -rho
        inv_rho = 1.0 / rho  # overflows to inf, where rho**-2 would raise OverflowError
        fro2 = self._fro2 + float(np.vdot(h, h).real) + rho * rho
        inv_fro2 = self._inv_fro2 + float(np.vdot(u, u).real) + inv_rho * inv_rho
        if not fro2 * inv_fro2 * self._rcond**2 < 1.0:  # inf, and NaN from 0 * inf, fail too
            return False
        self._fro2, self._inv_fro2 = fro2, inv_fro2
        q_s = np.divide(v, rho, out=self._q[s])
        self._r_inv[:s, s] = u
        self._r_inv[s, s] = inv_rho
        self._qy[s] = np.vdot(q_s, self._y)
        self.residual -= self._qy[s] * q_s
        self.size = s + 1
        return True

    def gains(self) -> np.ndarray:
        s = self.size
        return self._r_inv[:s, :s] @ self._qy[:s]


def omp_solve(
    y: np.ndarray,
    operator: SensingOperator,
    max_sparsity: int,
) -> SparseEstimate:
    """Orthogonal matching pursuit with norm-normalized correlations.

    Selects at most ``max_sparsity`` distinct atoms, refitting the least
    squares gains on the active set each iteration, and stops early once
    the residual drops to the numerical floor relative to ``||y||``. The
    residual norm is checked to be non-increasing at every step.

    The correlations come from the Gram (Batch-OMP): one adjoint
    ``alpha0 = Psi^H y`` per call, divided by the column norms once, then
    ``alpha0 - Psi^H Psi_S c`` through the operator's factored Gram, each
    chosen atom's normalized Omega Gram column copied once into a per-solve
    buffer. The gains and the residual come from the ``|S|`` explicit
    columns, through a QR factor grown by one column per step. A step that
    leaves the active set close to singular hands it, for the rest of the
    solve, to ``lstsq``, which warns if the set is rank-deficient and
    returns the minimum-norm gains.
    """
    y = np.asarray(y, dtype=complex)
    n_obs, n_atoms = operator.shape
    if y.shape != (n_obs,):
        raise ValueError(f"expected measurement of length {n_obs}, got {y.shape}")
    if max_sparsity < 1:
        raise ValueError("max_sparsity must be >= 1")
    if max_sparsity > min(n_obs, n_atoms):
        raise ValueError("max_sparsity cannot exceed the number of observations or of atoms")

    with np.errstate(over="ignore"):  # an overflowing norm is inf and refused below
        y_norm = float(np.linalg.norm(y))
    if not np.isfinite(y_norm):
        raise FloatingPointError(f"measurement norm {y_norm} is not finite")
    floor = _RESIDUAL_REL_FLOOR * y_norm

    # Per-solve buffers: one operator serves concurrent solves.
    g_tau, g_phi, _ = operator.gram_rows.shape
    omega_gram = np.empty((g_tau, g_phi, max_sparsity), dtype=complex)
    basis = np.empty((n_obs, max_sparsity), dtype=complex)
    corr = np.empty(n_atoms, dtype=complex)
    score = np.empty(n_atoms)
    qr = _ActiveSetQR(y, max_sparsity)

    support: list[int] = []
    coefficients = np.zeros(0, dtype=complex)
    residual_norm = y_norm
    alpha0 = operator.rmatvec(y)
    alpha0 *= operator.inv_column_norms  # a complex divide takes about 3.5x as long

    while len(support) < max_sparsity and residual_norm > floor:
        s = len(support)
        if s:
            operator.residual_correlations(
                alpha0, omega_gram.reshape(-1, max_sparsity), support, coefficients, corr
            )
        np.abs(corr if s else alpha0, out=score)
        score[support] = -1.0
        g = int(np.argmax(score))
        support.append(g)
        operator.gram_column(g, omega_gram[:, :, s])
        basis[:, s] = operator.column(g)
        # Once a step is left to lstsq, the factor stops growing and lstsq refits every later step.
        if qr.size == s and qr.append(basis[:, s]):
            coefficients = qr.gains()
            new_norm = float(np.linalg.norm(qr.residual))
        else:
            active = basis[:, : s + 1]
            coefficients, _, rank, _ = np.linalg.lstsq(active, y, rcond=None)
            if rank < len(support):
                logger.warning(
                    "OMP active set is rank-deficient (rank %d < %d); using the "
                    "minimum-norm least-squares solution",
                    rank,
                    len(support),
                )
            new_norm = float(np.linalg.norm(y - active @ coefficients))
        if new_norm > residual_norm * (1.0 + 1e-9) + 1e-15:
            raise FloatingPointError(
                f"OMP residual increased from {residual_norm} to {new_norm}"
            )
        residual_norm = new_norm

    return SparseEstimate(
        support=tuple(support), coefficients=coefficients, residual_norm=residual_norm
    )


def reconstruct_channel(estimate: SparseEstimate, dicts: DictionarySet) -> ChannelVector:
    """Rebuild the channel from recovered atoms and gains.

    Support index ``g`` names the grid point ``(g_tau, g_phi, g_theta) =
    np.unravel_index(g, (G_tau, G_phi, G_theta))``, which refuses indices
    outside the grid; its atom is weighted by the estimated gain.
    """
    spec = dicts.spec
    g_tau, g_phi, g_theta = np.unravel_index(
        np.asarray(estimate.support, dtype=np.intp), (spec.g_tau, spec.g_phi, spec.g_theta)
    )
    weights = dicts.b[:, g_tau] * estimate.coefficients
    return sum_atoms(dicts.a_r[:, g_theta], dicts.a_t[:, g_phi], weights)


def nmse(h_true: np.ndarray, h_est: np.ndarray) -> float:
    """Normalized squared error ||h - h_est||^2 / ||h||^2; one that overflows is refused."""
    h_true = np.asarray(h_true)
    h_est = np.asarray(h_est)
    denom = float(np.sum(np.abs(h_true) ** 2))
    if denom == 0.0:
        raise DegenerateInputError("true channel vector is zero")
    # At a very low SNR and a small total power the noise fit can overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.sum(np.abs(h_true - h_est) ** 2)) / denom
    if not np.isfinite(value):
        raise DegenerateInputError("the NMSE overflows a float")
    return value


def snr_sigma2(
    total_power: float, num_tx: int, seq_len: int, allocation_size: int, snr_db: float
) -> float:
    """Noise variance for a target SNR: (Pt / (Nt M Q)) / 10^(SNR/10)."""
    if min(num_tx, seq_len, allocation_size) < 1:
        raise ValueError("dimensions must be positive")
    if total_power <= 0:
        raise ValueError("total_power must be positive")
    per_entry = total_power / (num_tx * seq_len * allocation_size)
    return per_entry / 10.0 ** (snr_db / 10.0)


# run_estimate looks OMP up here at call time, so a wrapper put in its place
# (bench/spans.py times every solve this way) sees every trial.
SOLVERS = {"omp": omp_solve}
