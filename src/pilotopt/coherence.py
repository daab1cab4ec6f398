"""Sensing-matrix construction and coherence metrics.

The sensing matrix of the pilot measurement factorizes as
``Psi = Omega kron A_r`` where ``Omega`` collects the pilot-dependent
delay/AoD part and ``A_r`` is the AoA dictionary. Neither ``Psi`` nor the
dense ``Omega`` is formed: the coherence metrics read the delay-difference
rows of the Omega Gram below, and the sensing operator holds ``Omega`` as
its factors ``b_k[g_tau] * r_k(g_phi)`` plus those same rows, so OMP takes
its correlations from ``Psi^H Psi = (Omega^H Omega) kron (A_r^H A_r)``.

Column inner products of ``Omega`` obey

    c(gt, gt', gf, gf') = sum_k conj(b_k[gt]) * b_k[gt'] * <r_k(gf), r_k(gf')>

with ``r_k(gf) = X_k^T conj(a_t(gf))``. The delay grid is uniform, so the
weight ``conj(b_k[gt]) * b_k[gt']`` depends on ``d = gt - gt'`` alone. The
gradient and the coherence report read only the rows ``d = 0..G_tau-1`` of
the (G_tau^2, G_phi^2) tensor of these products: row ``d`` recurs
``G_tau - |d|`` times and ``d < 0`` is the Hermitian transpose of ``-d``.

The design loop's engine sums these rows in (Nt, Nt) antenna space, in
buffers made once per shape; the rows that leave it sum explicit column
products over the allocated subcarriers (see ``CoherenceEngine``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .dictionary import DictionarySet
from .errors import DegenerateInputError

__all__ = [
    "DENSE_ENTRY_CAP",
    "PAIR_SUBSAMPLE_SIZE",
    "PilotDesign",
    "CoherenceReport",
    "SensingOperator",
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


class SensingOperator:
    """Matrix-free ``Psi = Omega kron A_r`` on the selected subcarriers, from its factors.

    Omega column ``j = g_tau * G_phi + g_phi`` stacks, over the Q selected
    subcarriers in ascending order, the M-vectors ``b_k[g_tau] * r_k[g_phi]``
    with ``r_k = A_t^H X_k``, so ``shape = (Q*M*Nr, G)`` and Omega itself is
    never formed. ``gram_rows`` are the unnormalized delay-difference rows
    ``c_d`` (G_tau, G_phi, G_phi) of the Omega Gram; with ``ar_gram = A_r^H
    A_r`` they give ``Psi^H Psi = (Omega^H Omega) kron ar_gram`` column by
    column. Construction refuses a zero column of either factor.
    """

    def __init__(self, r: np.ndarray, b_sel: np.ndarray, a_r: np.ndarray, gram_rows: np.ndarray):
        self.r = r  # (Q, G_phi, M)
        self.b_sel = b_sel  # (Q, G_tau)
        self.a_r = a_r  # (Nr, G_theta)
        self.gram_rows = gram_rows
        self.ar_gram = a_r.conj().T @ a_r
        omega_norms, ar_norms = _column_norms(gram_rows, a_r)
        self._col_norms = np.kron(np.tile(omega_norms, b_sel.shape[1]), ar_norms)

    @property
    def shape(self) -> tuple[int, int]:
        q, g_phi, m = self.r.shape
        return (q * m * self.a_r.shape[0], self.b_sel.shape[1] * g_phi * self.a_r.shape[1])

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Adjoint product ``Psi^H y = (conj(B_sel)^T stack_k(conj(r_k) Y_k)) conj(A_r)``."""
        q, g_phi, m = self.r.shape
        n_r = self.a_r.shape[0]
        z = np.matmul(self.r.conj(), np.asarray(y).reshape(q, m, n_r))  # (Q, G_phi, Nr)
        zb = self.b_sel.conj().T @ z.reshape(q, g_phi * n_r)  # (G_tau, G_phi * Nr)
        return (zb.reshape(-1, n_r) @ self.a_r.conj()).ravel()

    def column(self, g: int) -> np.ndarray:
        """Column ``g`` of ``Psi``: ``(b_sel[:, g_tau] * r[:, g_phi, :]) kron a_r[:, g_theta]``."""
        j, i = divmod(int(g), self.a_r.shape[1])
        t, f = divmod(j, self.r.shape[1])
        omega_col = (self.b_sel[:, t, None] * self.r[:, f, :]).ravel()
        return np.outer(omega_col, self.a_r[:, i]).ravel()

    def column_norms(self) -> np.ndarray:
        """Norms of all columns: ``||omega_j||_2 * ||a_r,i||_2``, per the Kronecker split."""
        return self._col_norms

    def residual_correlations(
        self, alpha0: np.ndarray, atoms: list[int], gains: np.ndarray
    ) -> np.ndarray:
        """``Psi^H (y - Psi[:, atoms] @ gains)`` from ``alpha0 = Psi^H y``, through the Gram.

        Omega Gram entry ``((a, f), (b, f'))`` is ``c_{a-b}[f, f']`` for ``a >= b``
        and ``conj(c_{b-a}[f', f])`` otherwise, so each atom's Omega Gram
        column is two slices of the rows. The update stays factored: the
        (G_tau G_phi, |S|) Omega Gram columns scaled by the gains, times the
        atoms' (|S|, G_theta) A_r Gram rows.
        """
        g_tau, g_phi, _ = self.gram_rows.shape
        j, i = np.divmod(np.asarray(atoms), self.a_r.shape[1])
        og = np.empty((len(atoms), g_tau, g_phi), dtype=complex)
        for s, (t, f) in enumerate(zip(*np.divmod(j, g_phi))):
            og[s, :t] = self.gram_rows[t:0:-1, f, :].conj()
            og[s, t:] = self.gram_rows[: g_tau - t, :, f]
        corr = (og.reshape(len(atoms), -1).T @ (gains[:, None] * self.ar_gram[:, i].T)).ravel()
        return np.subtract(alpha0, corr, out=corr)


def _allocation_mask(design: PilotDesign, dicts: DictionarySet) -> np.ndarray:
    """Boolean mask of the allocated subcarriers, after the shared input checks."""
    if not design.allocation:
        raise ValueError("design has an empty allocation")
    if design.blocks.shape[:2] != (dicts.num_subcarriers, dicts.num_tx):
        raise ValueError("design dimensions do not match the dictionaries")
    return np.isin(np.arange(dicts.num_subcarriers), design.allocation)


def build_sensing_matrix(design: PilotDesign, dicts: DictionarySet) -> SensingOperator:
    """Assemble the factored sensing operator on the allocated subcarriers.

    Raises ``DegenerateInputError`` for a zero column of the pilot factor or
    of ``A_r``, by the same check and message as the coherence report.
    """
    sel = _allocation_mask(design, dicts)
    rows, _ = _omega_gram_rows(design, dicts)
    r = np.matmul(dicts.a_t.conj().T[None, :, :], design.blocks[sel])  # (Q, G_phi, M)
    return SensingOperator(r=r, b_sel=dicts.b[sel], a_r=dicts.a_r, gram_rows=rows)


def _arena(**specs: tuple[tuple[int, ...], type]) -> SimpleNamespace:
    """Named views ``name -> (shape, dtype)`` into one allocation, at 64-byte offsets."""
    sizes = {name: math.prod(shape) * np.dtype(dtype).itemsize for name, (shape, dtype) in specs.items()}
    raw = np.empty(sum(-(-n // 64) * 64 for n in sizes.values()), dtype=np.uint8)
    views, offset = {}, 0
    for name, (shape, dtype) in specs.items():
        views[name] = raw[offset : offset + sizes[name]].view(dtype).reshape(shape)
        offset += -(-sizes[name] // 64) * 64
    return SimpleNamespace(**views)


class CoherenceEngine:
    """Coherence objective and gradient from the delay-difference Gram rows.

    The delay grid is uniform, so the weight ``W[k, a, b] = conj(b_k[a]) *
    b_k[b]`` depends on ``d = a - b`` alone and the (G_tau^2, G_phi^2) Omega
    Gram holds only the rows ``c_d = sum_k w_d[k] P_k``, ``w_d[k] = W[k, d,
    0]``. Row ``d`` recurs ``G_tau - |d|`` times and ``c_{-d} = c_d^H``, so
    only ``d >= 0`` is built. Construction refuses a dictionary whose ``W``
    is not Toeplitz in ``(a, b)``.

    ``gram_tensor`` sums ``P_k = conj(r_k) r_k^T``, the inner products of
    explicit Omega columns, so its diagonal holds their squared norms and
    is never negative.
    ``f_value_and_vgrad`` sums in antenna space instead: ``P_k = A_t^T
    conj(X_k) X_k^T conj(A_t)``, so ``c_d = A_t^T S_d conj(A_t)`` with the
    (Nt, Nt) matrices ``S_d = sum_k w_d[k] conj(X_k) X_k^T``, one AoD wrap
    per delay difference. Its rows stay inside: their rounding is relative
    to the largest column, which a near-zero column's normalized inner
    products would not survive. It writes every intermediate into views of
    one allocation, made once per blocks shape, so an engine must not be
    shared between threads. No result is ever such a view: ``gram_tensor``
    and the returned gradient are fresh arrays that later calls leave alone.
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
        self._w_t = self._w_d.T.copy()  # (G_tau, K)
        self._w_conj = self._w_d.conj()  # (K, G_tau)
        self._at_h = dicts.a_t.conj().T  # (G_phi, Nt)
        self._at_t = dicts.a_t.T.copy()  # (G_phi, Nt)
        self._at_conj = dicts.a_t.conj()  # (Nt, G_phi)
        self._work = None

    def _rows(self, blocks: np.ndarray, w_t: np.ndarray) -> np.ndarray:
        """Fresh rows ``c_d`` (G_tau, G_phi, G_phi) over ``blocks``, weighted by ``w_t`` (G_tau, len(blocks))."""
        r = np.matmul(self._at_h[None, :, :], blocks)  # (K, G_phi, M)
        p_mat = np.matmul(r.conj(), r.transpose(0, 2, 1))  # (K, G_phi, G_phi)
        rows = w_t @ p_mat.reshape(blocks.shape[0], self.g_phi * self.g_phi)
        return rows.reshape(self.g_tau, self.g_phi, self.g_phi)

    def gram_tensor(self, blocks: np.ndarray) -> np.ndarray:
        """Delay-difference rows ``c_d``, d = 0..G_tau-1, as a fresh (G_tau, G_phi^2) matrix."""
        return self._rows(blocks, self._w_t).reshape(self.g_tau, -1)

    def _buffers(self, shape: tuple[int, ...]) -> SimpleNamespace:
        """The work arena for pilot blocks of ``shape``, rebuilt when the shape changes."""
        if self._work is None or self._work.shape != shape:
            k, nt, m = shape
            g_tau, g_phi = self.g_tau, self.g_phi
            self._work = _arena(
                xc=((k, nt, m), complex),  # conj(X_k)
                y=((k, nt, nt), complex),  # conj(X_k) X_k^T, later s1_k^T
                s=((g_tau, nt, nt), complex),  # S_d, later U_d^T
                z=((g_tau, g_phi, nt), complex),  # A_t^T S_d, later T_d A_t^T
                c=((g_tau, g_phi * g_phi), complex),  # c_d, later T_d
                a2=((g_tau, g_phi * g_phi), float),
                pw=((g_tau, g_phi * g_phi), float),
                xv=((k, nt, m), complex),  # conj(s1_k^H X_k)
            )
            self._work.shape = shape
        return self._work

    def f_value_and_vgrad(self, blocks: np.ndarray, p: int) -> tuple[float, float, np.ndarray]:
        """Return (f, v_p, dv_p/dconj(X)) for the coherence sum v_p = f^p.

        ``v_p = sum_d m_d sum |c_d|^p``, where ``m_d`` counts the rows equal
        to ``c_d`` or ``c_-d``: G_tau for d = 0, 2 (G_tau - d) for d > 0.
        Contracting ``(p/2) |c|^(p-2) c`` against all delay-pair weights gives
        a Hermitian ``F_k = H_k + H_k^H`` with ``2 H_k = sum_d conj(w_d[k])
        T_d``, ``T_d = (p/2) m_d |c_d|^(p-2) c_d``. The AoD wrap moves into
        antenna space once per delay difference, ``U_d = A_t T_d^T A_t^H``, so
        ``s1_k = sum_d conj(w_d[k]) U_d`` and the gradient is ``(s1_k +
        s1_k^H) X_k``. Only the returned gradient is allocated.
        """
        _require_even_p(p)
        k, nt, _ = blocks.shape
        g_tau, g_phi = self.g_tau, self.g_phi
        work = self._buffers(blocks.shape)
        c, a2, pw = work.c, work.a2, work.pw
        np.conjugate(blocks, out=work.xc)
        np.matmul(work.xc, blocks.transpose(0, 2, 1), out=work.y)
        np.matmul(self._w_t, work.y.reshape(k, nt * nt), out=work.s.reshape(g_tau, nt * nt))
        np.matmul(self._at_t, work.s, out=work.z)
        np.matmul(work.z.reshape(-1, nt), self._at_conj, out=c.reshape(-1, g_phi))
        np.multiply(c.real, c.real, out=a2)
        np.multiply(c.imag, c.imag, out=pw)
        a2 += pw
        np.power(a2, p // 2 - 1, out=pw)  # |c|^(p-2)
        a2 *= pw
        v_p = float(self._mult @ np.sum(a2, axis=1))
        pw *= ((p / 2.0) * self._mult)[:, None]
        c.real *= pw  # T_d, in place of c_d
        c.imag *= pw
        np.matmul(c.reshape(-1, g_phi), self._at_t, out=work.z.reshape(-1, nt))
        np.matmul(self._at_conj, work.z, out=work.s)  # U_d^T = conj(A_t) T_d A_t^T
        np.matmul(self._w_conj, work.s.reshape(g_tau, nt * nt), out=work.y.reshape(k, nt * nt))
        # s1_k = y_k^T, and s1_k^H X_k = conj(y_k conj(X_k)).
        vgrad = np.matmul(work.y.transpose(0, 2, 1), blocks)
        np.matmul(work.y, work.xc, out=work.xv)
        vgrad += np.conjugate(work.xv, out=work.xv)
        return float(v_p ** (1.0 / p)), v_p, vgrad


def _omega_gram_rows(design: PilotDesign, dicts: DictionarySet) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized Omega Gram rows ``c_d`` on the allocated subcarriers, and their multiplicities.

    Sums the allocated blocks alone, with their columns of the all-K
    engine's delay weights, so the uniform-grid check keeps the full grid's
    tolerance. Returns the (G_tau, G_phi, G_phi) rows and the engine's pair
    multiplicities.
    """
    sel = _allocation_mask(design, dicts)
    engine = CoherenceEngine(dicts)
    return engine._rows(design.blocks[sel], engine._w_t[:, sel]), engine._mult


def _column_norms(rows: np.ndarray, a_r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Omega column norms ``sqrt(diag c_0)``, one per g_phi since ``|b_k| = 1``, and A_r's.

    Refuses a zero column of either factor: its normalized inner products
    are undefined, and OMP could never select it.
    """
    norms = np.sqrt(rows[0].diagonal().real)
    ar_norms = np.linalg.norm(a_r, axis=0)
    for n, what in ((norms, "the pilot factor"), (ar_norms, "the AoA dictionary")):
        zero = np.flatnonzero(n == 0)
        if zero.size:
            raise DegenerateInputError(f"column {int(zero[0])} of {what} has zero norm")
    return norms, ar_norms


def _normalized_rows(design: PilotDesign, dicts: DictionarySet) -> tuple[np.ndarray, ...]:
    """Normalized Gram rows of both factors of ``Psi`` on the allocated subcarriers.

    Returns ``(rows, n, ar_gram, mult)``: ``rows[d] = |c_d| / (n n^T)``, shape
    (G_tau, G_phi, G_phi); the Omega column norms ``n``; the normalized A_r
    Gram; the engine's pair multiplicities. Omega Gram entry ``((a, f), (b,
    f'))`` has magnitude ``rows[a - b, f, f']`` for ``a >= b`` and ``rows[b -
    a, f', f]`` otherwise.
    """
    c, mult = _omega_gram_rows(design, dicts)
    norms, ar_norms = _column_norms(c, dicts.a_r)
    ar_gram = np.abs(dicts.a_r.conj().T @ dicts.a_r) / np.outer(ar_norms, ar_norms)
    return np.abs(c) / np.outer(norms, norms), norms, ar_gram, mult


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
