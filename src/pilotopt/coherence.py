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

The weights ``w_d[k] = conj(b_k[d]) b_k[0]`` come from the dictionary set,
which checks the grid once (``DictionarySet.delay_weights``). The design
loop's engine sums the rows in (Nt, Nt) antenna space; everywhere else
``build_sensing_matrix`` sums them from explicit column products over the
allocated subcarriers, and ``coherence_report``, the one reader of their
normalized form, reads them off its operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .dictionary import DictionarySet
from .errors import DegenerateInputError

__all__ = [
    "PilotDesign",
    "CoherenceReport",
    "SensingOperator",
    "build_sensing_matrix",
    "CoherenceEngine",
    "welch_bound",
    "coherence_report",
]

# Largest Omega Gram, in entries, whose off-diagonal pairs all enter the
# report's CDF (the 2048-column paper factor just fits).
_DENSE_ENTRY_CAP = 1 << 22
# Pair count of the seeded CDF subsample for wider Omega factors.
_PAIR_SUBSAMPLE_SIZE = 1_000_000
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
    column. ``omega_norms`` (one per g_phi, since ``|b_k| = 1``) and
    ``ar_norms`` are the factors' column norms, ``column_norms``, their
    Kronecker product, those of ``Psi``, and ``inv_column_norms`` their
    reciprocals. Construction refuses a zero column of either factor: its
    normalized inner products are undefined, and OMP could never select it.

    OMP reads the Gram normalized by the output column: ``gram_column`` and
    the A_r Gram rows are divided by the norms of the columns they
    correlate with, so ``residual_correlations`` yields ``Psi^H r`` divided
    by the column norms. The operator holds no per-solve state, so
    concurrent solves may share it.
    """

    def __init__(self, r: np.ndarray, b_sel: np.ndarray, a_r: np.ndarray, gram_rows: np.ndarray):
        self.r = r  # (Q, G_phi, M)
        self.b_sel = b_sel  # (Q, G_tau)
        self.a_r = a_r  # (Nr, G_theta)
        self.gram_rows = gram_rows
        self.ar_gram = a_r.conj().T @ a_r
        self.omega_norms = np.sqrt(gram_rows[0].diagonal().real)
        self.ar_norms = np.linalg.norm(a_r, axis=0)
        for n, what in ((self.omega_norms, "the pilot factor"), (self.ar_norms, "the AoA dictionary")):
            zero = np.flatnonzero(n == 0)
            if zero.size:
                raise DegenerateInputError(f"column {int(zero[0])} of {what} has zero norm")
        self.column_norms = np.kron(np.tile(self.omega_norms, b_sel.shape[1]), self.ar_norms)
        self.inv_column_norms = 1.0 / self.column_norms
        self._inv_omega_norms = 1.0 / self.omega_norms
        self._ar_rows = (self.ar_gram / self.ar_norms[:, None]).T  # row i: A_r Gram column i, normalized

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

    def gram_column(self, g: int, out: np.ndarray) -> None:
        """Write atom ``g``'s Omega Gram column, over the Omega column norms, into ``out`` (G_tau, G_phi).

        Omega Gram entry ``((a, f), (b, f'))`` is ``c_{a-b}[f, f']`` for ``a >= b``
        and ``conj(c_{b-a}[f', f])`` otherwise, so the column is two slices of
        the rows; row ``(a, f)`` is then divided by ``omega_norms[f]``.
        """
        t, f = divmod(int(g) // self.a_r.shape[1], self.r.shape[1])
        np.multiply(self.gram_rows[t:0:-1, f, :].conj(), self._inv_omega_norms, out=out[:t])
        np.multiply(self.gram_rows[: len(self.gram_rows) - t, :, f], self._inv_omega_norms, out=out[t:])

    def residual_correlations(
        self, alpha0: np.ndarray, omega_gram: np.ndarray, atoms: list[int], gains: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """Normalized ``Psi^H (y - Psi[:, atoms] @ gains)`` into ``out``, through the Gram.

        ``alpha0`` is ``Psi^H y`` over the column norms and ``omega_gram``
        (G_tau G_phi, >= |S|) holds the atoms' ``gram_column``s in its first
        ``|S|`` columns. The update stays factored, ``omega_gram diag(gains)
        A_S`` with the atoms' normalized (|S|, G_theta) A_r Gram rows, as one
        real product on interleaved float views: the (|S|, 2 G_theta) right
        factor ``R`` becomes ``[R; iR]`` interleaved by row.
        """
        n, g_theta = len(atoms), self.a_r.shape[1]
        right = gains[:, None] * self._ar_rows[np.asarray(atoms) % g_theta]
        right = np.stack([right, 1j * right], axis=1).view(float).reshape(2 * n, 2 * g_theta)
        np.matmul(omega_gram[:, :n].view(float), right, out=out.reshape(-1, g_theta).view(float))
        return np.subtract(alpha0, out, out=out)


def _gram_rows(r: np.ndarray, w_t: np.ndarray) -> np.ndarray:
    """Rows ``c_d = sum_k w_t[d, k] conj(r_k) r_k^T`` (G_tau, G_phi, G_phi) from explicit columns ``r_k``,
    eight AoD rows at a time, so the (Q, G_phi, G_phi) column products are never held whole."""
    q, g_phi, _ = r.shape
    rows = np.empty((w_t.shape[0], g_phi, g_phi), dtype=complex)
    for f in range(0, g_phi, 8):
        p_mat = np.matmul(r[:, f : f + 8].conj(), r.transpose(0, 2, 1))  # (Q, <= 8, G_phi)
        rows[:, f : f + 8] = (w_t @ p_mat.reshape(q, -1)).reshape(len(w_t), -1, g_phi)
    return rows


def _pair_multiplicity(g_tau: int) -> np.ndarray:
    """Gram rows equal to ``c_d`` or ``c_-d``: G_tau for d = 0, 2 (G_tau - d) above."""
    return (2.0 - (np.arange(g_tau) == 0)) * (g_tau - np.arange(g_tau))


def build_sensing_matrix(design: PilotDesign, dicts: DictionarySet) -> SensingOperator:
    """Assemble the factored sensing operator on the allocated subcarriers.

    The one builder of a design's Omega factor outside the design loop: it
    sums the allocated blocks with their columns of the all-K delay weights.
    Raises ``ValueError`` for bad inputs or a non-uniform delay grid, and
    ``DegenerateInputError`` for a zero column of either factor.
    """
    if not design.allocation:
        raise ValueError("design has an empty allocation")
    if design.blocks.shape[:2] != (dicts.num_subcarriers, dicts.num_tx):
        raise ValueError("design dimensions do not match the dictionaries")
    sel = np.isin(np.arange(dicts.num_subcarriers), design.allocation)
    r = np.matmul(dicts.a_t.conj().T[None, :, :], design.blocks[sel])  # (Q, G_phi, M)
    rows = _gram_rows(r, dicts.delay_weights.T[:, sel])
    return SensingOperator(r=r, b_sel=dicts.b[sel], a_r=dicts.a_r, gram_rows=rows)


def _arena(*slots: dict[str, tuple[tuple[int, ...], type]]) -> SimpleNamespace:
    """Named views ``name -> (shape, dtype)`` into one allocation.

    Each slot starts at a 64-byte offset and is as large as its largest view;
    the views of one slot share its memory.
    """
    sizes = [{name: math.prod(shape) * np.dtype(dtype).itemsize for name, (shape, dtype) in slot.items()}
             for slot in slots]
    spans = [-(-max(slot.values()) // 64) * 64 for slot in sizes]
    raw = np.empty(sum(spans), dtype=np.uint8)
    views, offset = {}, 0
    for slot, slot_sizes, span in zip(slots, sizes, spans):
        for name, (shape, dtype) in slot.items():
            views[name] = raw[offset : offset + slot_sizes[name]].view(dtype).reshape(shape)
        offset += span
    return SimpleNamespace(**views)


class CoherenceEngine:
    """Coherence objective and gradient of the design loop, from the delay-difference Gram rows.

    The (G_tau^2, G_phi^2) Omega Gram holds only the rows ``c_d = sum_k
    w_d[k] P_k`` with the dictionary set's ``delay_weights`` ``w_d``, whose
    uniform-grid check it relies on (construction raises its ``ValueError``).
    Row ``d`` recurs ``G_tau - |d|`` times and ``c_{-d} = c_d^H``, so only
    ``d >= 0`` is built.

    ``f_value_and_vgrad`` sums in antenna space: ``P_k = A_t^T conj(X_k)
    X_k^T conj(A_t)``, so ``c_d = A_t^T S_d conj(A_t)`` with the (Nt, Nt)
    matrices ``S_d = sum_k w_d[k] conj(X_k) X_k^T``, one AoD wrap per delay
    difference. Its rows stay inside: their rounding is relative to the
    largest column, which a near-zero column's normalized inner products
    would not survive, so the rows that leave the design loop come from
    ``build_sensing_matrix`` instead. It writes every intermediate into views of
    one allocation, made once per blocks shape, so an engine must not be
    shared between threads. No result is ever such a view: ``gram_tensor``
    and the returned gradient are fresh arrays that later calls leave alone.

    Two pairs of views share memory. The ``|c|^2`` plane ``a2`` lies over the
    K-side products ``y``, and the ``|c|^(p-2)`` plane ``pw`` over the AoD
    products ``z``. ``y`` is dead from ``S_d = w_t y`` until ``y`` is
    rewritten from ``U_d``, and ``z`` from ``c_d = z conj(A_t)`` until ``z``
    is rewritten from ``T_d``; ``a2`` and ``pw`` are read only in between, so
    neither write lands on a value still to be read. On paper the
    allocation is 5 MiB; unshared, the views would take 7 MiB.
    """

    def __init__(self, dicts: DictionarySet):
        self.g_tau = dicts.b.shape[1]
        self.g_phi = dicts.a_t.shape[1]
        self._mult = _pair_multiplicity(self.g_tau)
        self._w_t = dicts.delay_weights.T.copy()  # (G_tau, K)
        self._w_conj = dicts.delay_weights.conj()  # (K, G_tau)
        self._at_t = dicts.a_t.T.copy()  # (G_phi, Nt)
        self._at_conj = dicts.a_t.conj()  # (Nt, G_phi)
        self._work = None

    def gram_tensor(self, blocks: np.ndarray) -> np.ndarray:
        """Delay-difference rows ``c_d``, d = 0..G_tau-1, as a fresh (G_tau, G_phi^2) matrix.

        Sums explicit column products (``_gram_rows``) over all K blocks, so
        its diagonal holds squared column norms and is never negative. No
        command calls it; it stays as the benchmark's ``coherence.gram``
        span until the benchmark wraps ``_gram_rows`` instead.
        """
        r = np.matmul(self._at_conj.T[None, :, :], blocks)  # (K, G_phi, M)
        return _gram_rows(r, self._w_t).reshape(self.g_tau, -1)

    def _buffers(self, shape: tuple[int, ...]) -> SimpleNamespace:
        """The work arena for pilot blocks of ``shape``, rebuilt when the shape changes."""
        if self._work is None or self._work.shape != shape:
            k, nt, m = shape
            g_tau, g_phi = self.g_tau, self.g_phi
            self._work = _arena(
                {"xc": ((k, nt, m), complex)},  # conj(X_k)
                {"y": ((k, nt, nt), complex),  # conj(X_k) X_k^T, later s1_k^T
                 "a2": ((g_tau, g_phi * g_phi), float)},  # |c|^2, while y is dead
                {"s": ((g_tau, nt, nt), complex)},  # S_d, later U_d^T
                {"z": ((g_tau, g_phi, nt), complex),  # A_t^T S_d, later T_d A_t^T
                 "pw": ((g_tau, g_phi * g_phi), float)},  # |c|^(p-2), while z is dead
                {"c": ((g_tau, g_phi * g_phi), complex)},  # c_d, later T_d
                {"xv": ((k, nt, m), complex)},  # conj(s1_k^H X_k)
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

        When the largest ``|c|^p`` lies outside ``2^(+-512)``, the powers
        are taken over the largest ``|c|^2``, so ``v_p`` and the gradient
        come back divided by its ``p/2``-th power while ``f`` and ``vgrad /
        v_p``, all the optimizer reads, keep their values; below that the
        sums are unscaled.
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
        top = float(a2.max())
        scale = top if top > 0 and abs(p * math.log2(top)) > 1024 else 1.0
        if scale != 1.0:
            a2 /= scale
        np.power(a2, p // 2 - 1, out=pw)  # |c|^(p-2), over scale^(p/2 - 1)
        a2 *= pw
        v_p = float(self._mult @ np.sum(a2, axis=1))
        pw *= ((p / 2.0) * self._mult / scale)[:, None]
        c.real *= pw  # T_d, in place of c_d
        c.imag *= pw
        np.matmul(c.reshape(-1, g_phi), self._at_t, out=work.z.reshape(-1, nt))
        np.matmul(self._at_conj, work.z, out=work.s)  # U_d^T = conj(A_t) T_d A_t^T
        np.matmul(self._w_conj, work.s.reshape(g_tau, nt * nt), out=work.y.reshape(k, nt * nt))
        # s1_k = y_k^T, and s1_k^H X_k = conj(y_k conj(X_k)).
        vgrad = np.matmul(work.y.transpose(0, 2, 1), blocks)
        np.matmul(work.y, work.xc, out=work.xv)
        vgrad += np.conjugate(work.xv, out=work.xv)
        return float(v_p ** (1.0 / p)) * math.sqrt(scale), v_p, vgrad


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
    """Summary metrics plus CDF samples of the Omega-factor geometry.

    Each CDF is held as runs: sorted ``values`` and, per value, the
    positive count of pairs or columns it stands for. Equal values from
    different delay-difference rows sit side by side, so ``np.repeat(values,
    counts)`` is the sorted CDF itself (2.1 M float64 on the paper profile,
    which ``save_report`` writes without forming).
    """

    mutual_coherence: float
    generalized: float
    p: int
    welch: float
    n_obs: int
    n_atoms: int
    inner_product_runs: tuple[np.ndarray, np.ndarray]  # normalized |<w_i, w_j>|, i < j
    column_norm_runs: tuple[np.ndarray, np.ndarray]  # ||w_j||_2

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
    i = rng.integers(0, n_cols, _PAIR_SUBSAMPLE_SIZE)
    j = rng.integers(0, n_cols - 1, _PAIR_SUBSAMPLE_SIZE)
    j = np.where(j >= i, j + 1, j)  # uniform over ordered pairs i != j
    ti, fi = np.divmod(i, g_phi)
    tj, fj = np.divmod(j, g_phi)
    lower = ti >= tj
    return rows[np.abs(ti - tj), np.where(lower, fi, fj), np.where(lower, fj, fi)]


def coherence_report(design: PilotDesign, dicts: DictionarySet, p: int) -> CoherenceReport:
    """Evaluate a design: sensing-matrix metrics plus Omega CDF samples.

    Everything comes from the sensing operator's normalized delay-difference
    rows: ``mu`` and ``nu_p`` through the Kronecker split, and, when the Omega
    Gram has at most ``_DENSE_ENTRY_CAP`` entries, the CDF over all its
    off-diagonal column pairs, as the rows' entries with their counts: row
    ``d > 0`` recurs ``G_tau - d`` times and row 0's upper triangle
    ``G_tau`` times. Larger factors get a seeded uniform subsample of
    ``_PAIR_SUBSAMPLE_SIZE`` pairs instead, each counted once.

    It is the one reader of those rows: ``rows[d] = |c_d| / (n n^T)`` for
    the Omega column norms ``n``, so Omega Gram entry ``((a, f), (b, f'))``
    has magnitude ``rows[a - b, f, f']`` for ``a >= b`` and ``rows[b - a, f',
    f]`` otherwise. The diagonals of both normalized Grams are 1 by
    definition; zeroing them keeps their rounding out of every power, and
    ``mu`` is the largest entry left. ``nu_p`` sums off-diagonal pairs
    alone: ``nu_p^p = O A + O G + N A`` for the factors' off-diagonal power
    sums ``O`` and ``A`` over ``N`` and ``G`` columns, each over entries
    divided by the largest, so no power overflows. With every off-diagonal
    entry 0, as for an orthonormal ``Psi``, both are 0. A non-finite entry
    of either normalized Gram raises ``DegenerateInputError``.
    """
    _require_even_p(p)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry is refused below
        op = build_sensing_matrix(design, dicts)
        norms = op.omega_norms
        rows = np.abs(op.gram_rows)
        rows /= np.outer(norms, norms)
        ar_gram = np.abs(op.ar_gram) / np.outer(op.ar_norms, op.ar_norms)
    del op  # free its complex rows before the CDF sort
    if not (np.isfinite(rows).all() and np.isfinite(ar_gram).all()):
        raise DegenerateInputError("the normalized Omega or A_r Gram has a non-finite entry")
    np.fill_diagonal(rows[0], 0.0)
    np.fill_diagonal(ar_gram, 0.0)
    top = max(float(rows.max()), float(ar_gram.max()))
    mu, scale = min(top, 1.0), top or 1.0
    g_tau, g_phi, _ = rows.shape
    n_cols = g_tau * g_phi
    n_obs = dicts.num_rx * design.seq_len * len(design.allocation)
    n_atoms = n_cols * ar_gram.shape[0]
    o_sum = float(_pair_multiplicity(g_tau) @ np.sum((rows / scale) ** p, axis=(1, 2)))
    a_sum = float(np.sum((ar_gram / scale) ** p))
    nu_scaled = o_sum * a_sum * mu**p + o_sum * ar_gram.shape[0] + n_cols * a_sum
    if n_cols * n_cols <= _DENSE_ENTRY_CAP:
        upper = rows[0][np.triu_indices(g_phi, k=1)]
        inner = np.concatenate([upper, rows[1:].ravel()])
        del rows  # and its rows, and sort one array at a time (paper peak: about 4 MiB, not 6)
        counts = np.repeat(g_tau - np.arange(g_tau), [upper.size] + [g_phi * g_phi] * (g_tau - 1))
        order = np.argsort(inner)
        inner = inner[order]
        counts = counts[order]
    else:
        inner = np.sort(_sampled_pair_values(rows))
        counts = np.ones(inner.size, dtype=np.int64)
    return CoherenceReport(
        mutual_coherence=mu,
        generalized=float(scale * nu_scaled ** (1.0 / p)),
        p=p,
        welch=welch_bound(n_obs, n_atoms),
        n_obs=n_obs,
        n_atoms=n_atoms,
        inner_product_runs=(inner, counts),
        column_norm_runs=(np.sort(norms), np.full(g_phi, g_tau)),
    )
