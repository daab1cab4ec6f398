"""Sensing-matrix construction and coherence metrics.

The sensing matrix of the pilot measurement factorizes as
``Psi = Omega kron A_r`` where ``Omega`` collects the pilot-dependent
delay/AoD part and ``A_r`` is the AoA dictionary. Every hot-path
evaluation here works on the small ``Omega`` factor only; ``Psi`` is never
formed.

Column inner products of ``Omega`` obey

    c(gt, gt', gf, gf') = sum_k conj(b_k[gt]) * b_k[gt'] * <r_k(gf), r_k(gf')>

with ``r_k(gf) = X_k^T conj(a_t(gf))``. The delay grid is uniform, so the
weight ``conj(b_k[gt]) * b_k[gt']`` depends on ``d = gt - gt'`` alone. The
gradient and the coherence report read only the rows ``d = 0..G_tau-1`` of
the (G_tau^2, G_phi^2) tensor of these products: row ``d`` recurs
``G_tau - |d|`` times and ``d < 0`` is the Hermitian transpose of ``-d``.
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

# Largest Omega Gram, in entries, whose off-diagonal pairs all enter the
# report's CDF (the 2048-column paper factor just fits).
DENSE_ENTRY_CAP = 1 << 22
# Pair count of the seeded CDF subsample for wider Omega factors.
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


def _allocation_mask(design: PilotDesign, dicts: DictionarySet) -> np.ndarray:
    """Boolean mask of the allocated subcarriers, after the shared input checks."""
    if not design.allocation:
        raise ValueError("design has an empty allocation")
    if design.blocks.shape[:2] != (dicts.num_subcarriers, dicts.num_tx):
        raise ValueError("design dimensions do not match the dictionaries")
    return np.isin(np.arange(dicts.num_subcarriers), design.allocation)


def build_sensing_matrix(design: PilotDesign, dicts: DictionarySet) -> SensingOperator:
    """Assemble the structured sensing operator on the allocated subcarriers."""
    sel = _allocation_mask(design, dicts)
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


def _normalized_rows(design: PilotDesign, dicts: DictionarySet) -> tuple[np.ndarray, ...]:
    """Normalized Gram rows of both factors of ``Psi`` on the allocated subcarriers.

    Returns ``(rows, n, ar_gram, mult)``: ``rows[d] = |c_d| / (n n^T)``, shape
    (G_tau, G_phi, G_phi); the Omega column norms ``n = sqrt(diag c_0)``, one
    per g_phi since ``|b_k| = 1``; the normalized A_r Gram; the engine's pair
    multiplicities. Omega Gram entry ``((a, f), (b, f'))`` has magnitude
    ``rows[a - b, f, f']`` for ``a >= b`` and ``rows[b - a, f', f]`` otherwise.
    """
    blocks = np.where(_allocation_mask(design, dicts)[:, None, None], design.blocks, 0)
    # On all K subcarriers the uniform-grid check keeps the full grid's tolerance.
    engine = CoherenceEngine(dicts)
    c = engine.gram_tensor(blocks).reshape(engine.g_tau, engine.g_phi, engine.g_phi)
    norms = np.sqrt(c[0].diagonal().real)
    ar_norms = np.linalg.norm(dicts.a_r, axis=0)
    for n, what in ((norms, "the pilot factor"), (ar_norms, "the AoA dictionary")):
        zero = np.flatnonzero(n == 0)
        if zero.size:
            raise DegenerateInputError(f"column {int(zero[0])} of {what} has zero norm")
    ar_gram = np.abs(dicts.a_r.conj().T @ dicts.a_r) / np.outer(ar_norms, ar_norms)
    return np.abs(c) / np.outer(norms, norms), norms, ar_gram, engine._mult


def _kron_mu(rows: np.ndarray, ar_gram: np.ndarray) -> float:
    """Largest off-diagonal normalized Gram entry of ``Omega kron A_r``: the factors' larger."""
    rows, ar_gram = rows.copy(), ar_gram.copy()
    np.fill_diagonal(rows[0], 0.0)
    np.fill_diagonal(ar_gram, 0.0)
    return min(max(float(rows.max()), float(ar_gram.max())), 1.0)


def mutual_coherence(design: PilotDesign, dicts: DictionarySet) -> float:
    """Largest normalized inner product of distinct ``Psi`` columns, from the engine's rows."""
    rows, _, ar_gram, _ = _normalized_rows(design, dicts)
    return _kron_mu(rows, ar_gram)


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


def _sampled_pair_values(rows: np.ndarray) -> np.ndarray:
    """Seeded uniform subsample of normalized off-diagonal Omega inner products."""
    g_tau, g_phi, _ = rows.shape
    n_cols = g_tau * g_phi
    rng = np.random.default_rng(_PAIR_SAMPLE_SEED)
    i = rng.integers(0, n_cols, PAIR_SUBSAMPLE_SIZE)
    j = rng.integers(0, n_cols - 1, PAIR_SUBSAMPLE_SIZE)
    j = np.where(j >= i, j + 1, j)  # uniform over ordered pairs i != j
    ti, fi = np.divmod(i, g_phi)
    tj, fj = np.divmod(j, g_phi)
    lower = ti >= tj
    return rows[np.abs(ti - tj), np.where(lower, fi, fj), np.where(lower, fj, fi)]


def coherence_report(design: PilotDesign, dicts: DictionarySet, p: int) -> CoherenceReport:
    """Evaluate a design: sensing-matrix metrics plus Omega CDF samples.

    Everything comes from the normalized delay-difference rows: ``mu`` and
    ``nu_p`` through the Kronecker split, and, when the Omega Gram has at most
    DENSE_ENTRY_CAP entries, the CDF over all its off-diagonal column pairs
    (row ``d`` recurs ``G_tau - d`` times); larger factors get a seeded
    uniform subsample of ``PAIR_SUBSAMPLE_SIZE`` pairs instead.
    """
    _require_even_p(p)
    rows, norms, ar_gram, mult = _normalized_rows(design, dicts)
    g_tau, g_phi, _ = rows.shape
    n_cols = g_tau * g_phi
    n_obs = dicts.num_rx * design.seq_len * len(design.allocation)
    n_atoms = n_cols * ar_gram.shape[0]
    # Each factor's power sum covers all pairs, diagonal included.
    power_sum = float(mult @ np.sum(rows**p, axis=(1, 2))) * float(np.sum(ar_gram**p))
    if n_cols * n_cols <= DENSE_ENTRY_CAP:
        upper = rows[0][np.triu_indices(g_phi, k=1)]
        inner = np.repeat(rows[1:], g_tau - np.arange(1, g_tau), axis=0).ravel()
        inner = np.concatenate([np.tile(upper, g_tau), inner])
    else:
        inner = _sampled_pair_values(rows)
    return CoherenceReport(
        mutual_coherence=_kron_mu(rows, ar_gram),
        # The n_atoms diagonal entries of a normalized Gram are exactly 1.
        generalized=float(max(power_sum - n_atoms, 0.0) ** (1.0 / p)),
        p=p,
        welch=welch_bound(n_obs, n_atoms),
        n_obs=n_obs,
        n_atoms=n_atoms,
        inner_product_cdf=np.sort(inner),
        column_norm_cdf=np.sort(np.tile(norms, g_tau)),
    )
