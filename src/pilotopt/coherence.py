"""Sensing-matrix construction and coherence metrics.

The sensing matrix of the pilot measurement factorizes as
``Psi = Omega kron A_r`` where ``Omega`` collects the pilot-dependent
delay/AoD part and ``A_r`` is the AoA dictionary. Every hot-path
evaluation here works on the small ``Omega`` factor only; ``Psi`` is never
formed.

Column inner products of ``Omega`` obey

    c(gt, gt', gf, gf') = sum_k conj(b_k[gt]) * b_k[gt'] * <r_k(gf), r_k(gf')>

with ``r_k(gf) = X_k^T conj(a_t(gf))``. The delay grid is uniform, so the
weight ``conj(b_k[gt]) * b_k[gt']`` depends on ``d = gt - gt'`` alone. Of
the (G_tau^2, G_phi^2) tensor of these products the gradient engine builds
one row per delay difference ``d = 0..G_tau-1``, counts it ``G_tau - |d|``
times and takes ``d < 0`` as the Hermitian transpose of ``-d``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dictionary import DictionarySet
from .errors import DegenerateInputError

__all__ = [
    "DENSE_ENTRY_CAP",
    "PAIR_SUBSAMPLE_SIZE",
    "PilotDesign",
    "CoherenceReport",
    "SensingOperator",
    "build_omega",
    "build_sensing_matrix",
    "CoherenceEngine",
    "mutual_coherence",
    "welch_bound",
    "coherence_report",
]

# Entries per block of a factor-Gram scan or of the CDF pair sampling
# (~64 MiB at complex128).
DENSE_ENTRY_CAP = 1 << 22
# Pair count of the seeded CDF subsample for Omega factors too wide for one
# Gram block.
PAIR_SUBSAMPLE_SIZE = 1_000_000
_PAIR_SAMPLE_SEED = 0x5EED


def _require_even_p(p: int) -> None:
    if p < 2 or p % 2 != 0:
        raise ValueError("p must be an even integer >= 2")


@dataclass(frozen=True)
class PilotDesign:
    """Pilot blocks over all subcarriers plus the sparse allocation.

    ``blocks[k]`` is the Nt x M pilot matrix of subcarrier ``k``;
    subcarriers outside ``allocation`` carry hard-zeroed blocks.
    """

    blocks: np.ndarray  # (K, Nt, M) complex
    allocation: tuple[int, ...]  # sorted, 0-based
    total_power: float

    def __post_init__(self) -> None:
        blocks = np.asarray(self.blocks, dtype=complex)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "allocation", tuple(int(k) for k in self.allocation))
        if blocks.ndim != 3:
            raise ValueError("blocks must have shape (K, Nt, M)")
        alloc = self.allocation
        if len(set(alloc)) != len(alloc):
            raise ValueError("allocation indices must be unique")
        if alloc and (alloc[0] < 0 or alloc[-1] >= blocks.shape[0]):
            raise ValueError("allocation index out of range")
        if tuple(sorted(alloc)) != alloc:
            raise ValueError("allocation must be sorted")
        if self.total_power <= 0:
            raise ValueError("total_power must be positive")

    @property
    def num_subcarriers(self) -> int:
        return self.blocks.shape[0]

    @property
    def num_tx(self) -> int:
        return self.blocks.shape[1]

    @property
    def seq_len(self) -> int:
        return self.blocks.shape[2]

    def full_matrix(self) -> np.ndarray:
        """Blocks concatenated along symbols: Nt x (M*K)."""
        k, nt, m = self.blocks.shape
        return self.blocks.transpose(1, 0, 2).reshape(nt, k * m)


def build_omega(blocks: np.ndarray, dicts: DictionarySet) -> np.ndarray:
    """Dense pilot-dependent factor, shape (M*K, G_tau*G_phi).

    Column ``j = g_tau * G_phi + g_phi`` stacks, over the K subcarriers,
    the M-vectors ``b_k(tau) * X_k^T conj(a_t(phi))``. All K subcarriers
    participate (the selection matrix is the identity during design);
    zeroed blocks simply contribute zero rows.
    """
    blocks = np.asarray(blocks, dtype=complex)
    k, nt, m = blocks.shape
    if nt != dicts.num_tx or k != dicts.num_subcarriers:
        raise ValueError("design dimensions do not match the dictionaries")
    # r[k, gf, :] = X_k^T conj(a_t(gf))
    r = np.matmul(dicts.a_t.conj().T[None, :, :], blocks)  # (K, G_phi, M)
    omega = np.einsum("kc,kfm->kmcf", dicts.b, r)
    g_tau = dicts.b.shape[1]
    g_phi = dicts.a_t.shape[1]
    return omega.reshape(k * m, g_tau * g_phi)


class SensingOperator:
    """Matrix-free ``Psi = Omega kron A_r`` on the selected subcarriers.

    ``Omega`` rows cover the selected subcarriers in ascending order (all K
    when unrestricted), so ``shape = (Nr*M*Q, G)``.
    """

    def __init__(self, omega: np.ndarray, a_r: np.ndarray):
        self.omega = omega
        self.a_r = a_r
        self._col_norms: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.omega.shape[0] * self.a_r.shape[0], self.omega.shape[1] * self.a_r.shape[1])

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Adjoint product ``Psi^H y``."""
        n_r = self.a_r.shape[0]
        mat = np.asarray(y).reshape(self.omega.shape[0], n_r)
        return (self.omega.conj().T @ mat @ self.a_r.conj()).ravel()

    def column(self, g: int) -> np.ndarray:
        n_theta = self.a_r.shape[1]
        j, i = divmod(int(g), n_theta)
        return np.outer(self.omega[:, j], self.a_r[:, i]).ravel()

    def column_norms(self) -> np.ndarray:
        """Norms of all columns: ||omega_j||_2 * sqrt(Nr), per the Kronecker split."""
        if self._col_norms is None:
            omega_norms = np.linalg.norm(self.omega, axis=0)
            a_norms = np.linalg.norm(self.a_r, axis=0)
            self._col_norms = np.kron(omega_norms, a_norms)
        return self._col_norms


def build_sensing_matrix(design: PilotDesign, dicts: DictionarySet) -> SensingOperator:
    """Assemble the structured sensing operator on the allocated subcarriers."""
    if not design.allocation:
        raise ValueError("design has an empty allocation")
    sel = np.asarray(design.allocation)
    omega = build_omega(design.blocks[sel], replace(dicts, b=dicts.b[sel]))
    return SensingOperator(omega=omega, a_r=dicts.a_r)


class CoherenceEngine:
    """Coherence objective and gradient from the delay-difference Gram rows.

    The delay grid is uniform, so the weight ``W[k, a, b] = conj(b_k[a]) *
    b_k[b]`` depends on ``d = a - b`` alone and the (G_tau^2, G_phi^2) Omega
    Gram holds only the rows ``c_d = sum_k w_d[k] P_k``, ``w_d[k] = W[k, d,
    0]``. Row ``d`` recurs ``G_tau - |d|`` times and ``c_{-d} = c_d^H``, so
    only ``d >= 0`` is built. Construction refuses a dictionary whose ``W``
    is not Toeplitz in ``(a, b)``.
    """

    def __init__(self, dicts: DictionarySet):
        self.dicts = dicts
        self.g_tau = dicts.b.shape[1]
        self.g_phi = dicts.a_t.shape[1]
        w = dicts.b.conj()[:, :, None] * dicts.b[:, None, :]  # (K, G_tau, G_tau)
        self._w_d = w[:, :, 0].copy()  # (K, G_tau)
        d = np.subtract.outer(np.arange(self.g_tau), np.arange(self.g_tau))
        lag = self._w_d[:, np.abs(d)]
        # Delay phases reach about pi * K radians (at most K taps), and their
        # roundoff grows with them: 1e-12 alone refuses uniform grids from K ~ 1500.
        tol = max(1e-12, 16 * np.finfo(float).eps * dicts.num_subcarriers)
        if np.max(np.abs(w - np.where(d >= 0, lag, lag.conj())), initial=0.0) > tol:
            raise ValueError("delay dictionary is not on a uniform grid (W is not Toeplitz)")
        # Multiplicity of the pair {c_d, c_-d}: G_tau for d = 0, 2 (G_tau - d) above.
        self._mult = 2.0 * (self.g_tau - np.arange(self.g_tau))
        self._mult[0] = self.g_tau
        self._at_h = dicts.a_t.conj().T  # (G_phi, Nt)

    def gram_tensor(self, blocks: np.ndarray) -> np.ndarray:
        """Delay-difference rows ``c_d``, d = 0..G_tau-1, as a (G_tau, G_phi^2) matrix."""
        r = np.matmul(self._at_h[None, :, :], blocks)  # (K, G_phi, M)
        p_mat = np.matmul(r.conj(), r.transpose(0, 2, 1))  # (K, G_phi, G_phi)
        k = blocks.shape[0]
        return self._w_d.T @ p_mat.reshape(k, self.g_phi * self.g_phi)

    def f_value_and_vgrad(self, blocks: np.ndarray, p: int) -> tuple[float, float, np.ndarray]:
        """Return (f, v_p, dv_p/dconj(X)) for the coherence sum v_p = f^p.

        ``v_p = sum_d m_d sum |c_d|^p``, where ``m_d`` counts the rows equal
        to ``c_d`` or ``c_-d``: G_tau for d = 0, 2 (G_tau - d) for d > 0.
        Contracting ``(p/2) |c|^(p-2) c`` against all delay-pair weights gives
        a Hermitian ``F_k = H_k + H_k^H``; ``T_d = (p/2) m_d |c_d|^(p-2) c_d``
        against ``conj(w_d)`` gives ``2 H_k``, and the wrap's ``s1 + s1^H``
        restores ``F_k``. The wrapped matrix is applied to each pilot block.
        """
        _require_even_p(p)
        c = self.gram_tensor(blocks)
        a2 = c.real**2 + c.imag**2
        pw = a2 ** (p // 2 - 1)  # |c|^(p-2)
        v_p = float(self._mult @ np.sum(pw * a2, axis=1))
        t_mat = ((p / 2.0) * self._mult)[:, None] * pw * c
        k = blocks.shape[0]
        f_kphi = (self._w_d.conj() @ t_mat).reshape(k, self.g_phi, self.g_phi)
        a_t = self.dicts.a_t
        s1 = np.matmul(np.matmul(a_t, f_kphi.transpose(0, 2, 1)), a_t.conj().T)
        vgrad = np.matmul(s1 + s1.conj().transpose(0, 2, 1), blocks)
        return float(v_p ** (1.0 / p)), v_p, vgrad


def _column_norms_checked(matrix: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=0)
    zero = np.flatnonzero(norms == 0)
    if zero.size:
        raise DegenerateInputError(f"column {int(zero[0])} of {what} has zero norm")
    return norms


def _gram_scan(
    matrix: np.ndarray, norms: np.ndarray, p: int | None, pairs: bool = False
) -> tuple[float, float, np.ndarray | None]:
    """One blockwise pass over the normalized Gram.

    Returns ``(max off-diagonal value, sum of p-th powers over all pairs
    including the diagonal, upper-triangle values)``. The power sum is 0.0
    when ``p`` is None; the upper-triangle values (``i < j``, row-major) are
    collected only when ``pairs`` is set, and are None otherwise. Each block
    holds at most DENSE_ENTRY_CAP entries.
    """
    n = matrix.shape[1]
    chunk = max(1, min(n, DENSE_ENTRY_CAP // max(n, 1)))
    ah = matrix.conj().T
    mu = 0.0
    total = 0.0
    upper = []
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = np.abs(ah[start:stop] @ matrix)
        block /= np.outer(norms[start:stop], norms)
        if p is not None:
            total += float(np.sum(block**p))
        if pairs:
            upper.append(block[np.triu(np.ones(block.shape, dtype=bool), k=start + 1)])
        block[np.arange(start, stop) - start, np.arange(start, stop)] = 0.0
        mu = max(mu, float(block.max()))
    return mu, total, (np.concatenate(upper) if pairs else None)


def _kron_scan(
    op: SensingOperator, p: int | None, pairs: bool = False
) -> tuple[float, float, np.ndarray, np.ndarray | None]:
    """Scan each factor Gram of ``Psi = Omega kron A_r`` once.

    The normalized Gram of ``Psi`` is the Kronecker product of the factor
    Grams, so its largest off-diagonal entry is the larger of the two factor
    maxima and its all-pairs power sum is the product of the factor sums.
    Returns ``(mu, all-pairs power sum, Omega column norms, Omega
    upper-triangle values)``.
    """
    omega_norms = _column_norms_checked(op.omega, "the pilot factor")
    mu_omega, sum_omega, upper = _gram_scan(op.omega, omega_norms, p, pairs)
    ar_norms = _column_norms_checked(op.a_r, "the AoA dictionary")
    mu_ar, sum_ar, _ = _gram_scan(op.a_r, ar_norms, p)
    return min(max(mu_omega, mu_ar), 1.0), sum_omega * sum_ar, omega_norms, upper


def mutual_coherence(op: SensingOperator) -> float:
    """Largest normalized inner product between distinct columns of ``Psi``.

    Scans only the two Kronecker factors.
    """
    return _kron_scan(op, None)[0]


def welch_bound(n_obs: int, n_atoms: int) -> float:
    """Lower bound sqrt((G - N) / (N (G - 1))) on mutual coherence; 0 if G <= N."""
    if n_atoms < 2:
        raise ValueError("the bound needs at least two columns")
    if n_obs < 1:
        raise ValueError("n_obs must be positive")
    if n_atoms <= n_obs:
        return 0.0
    return float(np.sqrt((n_atoms - n_obs) / (n_obs * (n_atoms - 1))))


@dataclass(frozen=True)
class CoherenceReport:
    """Summary metrics plus CDF samples of the Omega-factor geometry."""

    mutual_coherence: float
    generalized: float
    p: int
    welch: float
    n_obs: int
    n_atoms: int
    inner_product_cdf: np.ndarray  # sorted normalized |<w_i, w_j>|, i != j
    column_norm_cdf: np.ndarray  # sorted ||w_j||_2

    def summary_dict(self) -> dict:
        return {
            "mutual": self.mutual_coherence,
            "generalized_p": self.generalized,
            "p": self.p,
            "welch_bound": self.welch,
            "N": self.n_obs,
            "G": self.n_atoms,
        }


def _sampled_pair_values(omega: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Seeded uniform subsample of normalized off-diagonal inner products."""
    n_cols = omega.shape[1]
    rng = np.random.default_rng(_PAIR_SAMPLE_SEED)
    i = rng.integers(0, n_cols, PAIR_SUBSAMPLE_SIZE)
    j = rng.integers(0, n_cols - 1, PAIR_SUBSAMPLE_SIZE)
    j = np.where(j >= i, j + 1, j)  # uniform over ordered pairs i != j
    out = np.empty(PAIR_SUBSAMPLE_SIZE)
    chunk = max(1, DENSE_ENTRY_CAP // (4 * max(omega.shape[0], 1)))
    for start in range(0, PAIR_SUBSAMPLE_SIZE, chunk):
        stop = min(start + chunk, PAIR_SUBSAMPLE_SIZE)
        ii = i[start:stop]
        jj = j[start:stop]
        vals = np.abs(np.einsum("nk,nk->k", omega[:, ii].conj(), omega[:, jj]))
        out[start:stop] = vals / (norms[ii] * norms[jj])
    return out


def coherence_report(design: PilotDesign, dicts: DictionarySet, p: int) -> CoherenceReport:
    """Evaluate a design: sensing-matrix metrics plus Omega CDF samples.

    One scan per factor Gram yields ``mu``, ``nu_p`` and, when the Omega
    Gram fits in one DENSE_ENTRY_CAP block, the CDF over all its
    off-diagonal column pairs; larger factors get a seeded uniform
    subsample of ``PAIR_SUBSAMPLE_SIZE`` pairs instead.
    """
    _require_even_p(p)
    op = build_sensing_matrix(design, dicts)
    n_obs, n_atoms = op.shape
    n_cols = op.omega.shape[1]
    mu, power_sum, norms, inner = _kron_scan(op, p, pairs=n_cols * n_cols <= DENSE_ENTRY_CAP)
    if inner is None:
        inner = _sampled_pair_values(op.omega, norms)
    return CoherenceReport(
        mutual_coherence=mu,
        # The n_atoms diagonal entries of a normalized Gram are exactly 1.
        generalized=float(max(power_sum - n_atoms, 0.0) ** (1.0 / p)),
        p=p,
        welch=welch_bound(n_obs, n_atoms),
        n_obs=n_obs,
        n_atoms=n_atoms,
        inner_product_cdf=np.sort(inner),
        column_norm_cdf=np.sort(norms),
    )
