"""Slow reference implementations that the library's fast paths are checked against.

Each oracle evaluates a quantity straight from its defining formula: one
Omega Gram entry from the subcarrier sum, the coherence objective and its
gradient from the full (G_tau^2, G_phi^2) Omega Gram tensor, the dense
``Psi = Omega kron A_r`` (behind a memory cap) and its forward product,
the full-sensing-matrix objective from a dense ``Psi``, the normalized
Gram of a design's dense ``Omega``, mutual and generalized coherence from
a dense normalized Gram, the AoA dictionary
coherence from its dense Gram, the flat grid index of a (delay, AoD, AoA)
tuple, the channel of a virtual-gain vector and of a path realization as
sums of Kronecker (Khatri-Rao) columns. ``f_omega`` is the engine's
objective value alone, for tests that need no gradient.
``median_difference_ci`` is the paired bootstrap interval the end-to-end
acceptance criterion is judged by. ``write_csv_rows`` is the row-wise
``csv.writer`` route the column-wise CSV writer must match byte for byte.
"""

import csv

import numpy as np

from pilotopt import (
    CoherenceEngine,
    PilotDesign,
    build_sensing_matrix,
    delay_response,
    steering_vector,
)
from pilotopt.coherence import DENSE_ENTRY_CAP


class CapacityError(RuntimeError):
    """A dense materialization would exceed its memory cap."""


def _require_even_p(p):
    if p < 2 or p % 2 != 0:
        raise ValueError("p must be an even integer >= 2")


def encode_grid_index(g_tau, g_phi, g_theta, spec):
    """Flat dictionary column index ``(g_tau * G_phi + g_phi) * G_theta + g_theta``."""
    if not (0 <= g_tau < spec.g_tau and 0 <= g_phi < spec.g_phi and 0 <= g_theta < spec.g_theta):
        raise ValueError("grid index out of range")
    return (g_tau * spec.g_phi + g_phi) * spec.g_theta + g_theta


def dense_psi(op, entry_cap=DENSE_ENTRY_CAP):
    """The sensing operator's matrix ``Omega kron A_r``, refused above ``entry_cap`` entries."""
    n, g = op.shape
    if n * g > entry_cap:
        raise CapacityError(f"dense sensing matrix would need {n * g} entries (cap {entry_cap})")
    return np.kron(op.omega, op.a_r)


def psi_matvec(op, x):
    """Forward product ``Psi x`` as ``vec(Omega X A_r^T)``, X the (G_tau G_phi, G_theta) reshape."""
    cube = np.asarray(x).reshape(op.omega.shape[1], op.a_r.shape[1])
    return (op.omega @ cube @ op.a_r.T).ravel()


def _off_diagonal_normalized_gram(matrix):
    """|<m_i, m_j>| / (||m_i|| ||m_j||) for i != j, zero on the diagonal."""
    matrix = np.asarray(matrix)
    norms = np.linalg.norm(matrix, axis=0)
    gram = np.abs(matrix.conj().T @ matrix) / np.outer(norms, norms)
    np.fill_diagonal(gram, 0.0)
    return gram


def normalized_omega_gram(design, dicts):
    """Normalized off-diagonal Gram of the dense pilot factor on the allocated subcarriers."""
    return _off_diagonal_normalized_gram(build_sensing_matrix(design, dicts).omega)


def dense_mutual_coherence(matrix):
    """Largest normalized inner product between distinct columns of a dense matrix."""
    return float(_off_diagonal_normalized_gram(matrix).max())


def dense_generalized_coherence(matrix, p):
    """l_p norm of the off-diagonal normalized inner products of a dense matrix."""
    _require_even_p(p)
    return float(np.sum(_off_diagonal_normalized_gram(matrix) ** p) ** (1.0 / p))


def f_omega(blocks, dicts, p):
    """Coherence objective on the Omega factor (diagonal tuples included)."""
    return CoherenceEngine(dicts).f_value_and_vgrad(np.asarray(blocks, dtype=complex), p)[0]


def c_omega(blocks, dicts, g_tau, g_tau2, g_phi, g_phi2):
    """One Omega Gram entry via the subcarrier-sum formula.

    Computes ``a_t^T(phi) (sum_k conj(b_k) X_k* X_k^T b_k') conj(a_t(phi'))``
    directly, without building Omega.
    """
    blocks = np.asarray(blocks, dtype=complex)
    n_tau = dicts.b.shape[1]
    n_phi = dicts.a_t.shape[1]
    if not (0 <= g_tau < n_tau and 0 <= g_tau2 < n_tau):
        raise ValueError("delay grid index out of range")
    if not (0 <= g_phi < n_phi and 0 <= g_phi2 < n_phi):
        raise ValueError("AoD grid index out of range")
    weights = dicts.b[:, g_tau].conj() * dicts.b[:, g_tau2]  # (K,)
    middle = np.einsum("k,knm,kpm->np", weights, blocks.conj(), blocks)
    a = dicts.a_t[:, g_phi]
    a2 = dicts.a_t[:, g_phi2]
    return complex(a.T @ middle @ a2.conj())


def full_gram_tensor(blocks, dicts):
    """Delay-pair weights (K, G_tau^2) and every Omega-column inner product.

    The second result is the (G_tau^2, G_phi^2) Gram tensor: row
    ``a * G_tau + b`` holds the AoD block of delay pair ``(a, b)``, weighted
    by ``W[k, a, b] = conj(b_k[a]) * b_k[b]``.
    """
    blocks = np.asarray(blocks, dtype=complex)
    k = blocks.shape[0]
    g_tau = dicts.b.shape[1]
    g_phi = dicts.a_t.shape[1]
    w = dicts.b.conj()[:, :, None] * dicts.b[:, None, :]  # (K, G_tau, G_tau)
    w_mat = w.reshape(k, g_tau * g_tau)
    r = np.matmul(dicts.a_t.conj().T[None, :, :], blocks)  # (K, G_phi, M)
    p_mat = np.matmul(r.conj(), r.transpose(0, 2, 1))  # (K, G_phi, G_phi)
    return w_mat, w_mat.T @ p_mat.reshape(k, g_phi * g_phi)


def full_gram_value_and_vgrad(blocks, dicts, p):
    """(f, v_p, dv_p/dconj(X)) contracted over every row of the full Gram tensor.

    The gradient blocks follow the closed form: contract the tensor
    ``T = (p/2) |c|^(p-2) c`` against the delay-pair weights, wrap the
    result in the AoD dictionary, and apply the Hermitian-symmetrized
    matrix to each pilot block.
    """
    _require_even_p(p)
    blocks = np.asarray(blocks, dtype=complex)
    w_mat, c = full_gram_tensor(blocks, dicts)
    a2 = c.real**2 + c.imag**2
    half = p // 2
    if half == 1:
        v_p = float(np.sum(a2))
        t_mat = c
    elif half == 2:
        flat = a2.ravel()
        v_p = float(flat @ flat)
        t_mat = (p / 2.0) * a2 * c
    else:
        pw = a2 ** (half - 1)
        v_p = float(np.sum(pw * a2))
        t_mat = (p / 2.0) * pw * c
    k = blocks.shape[0]
    g_phi = dicts.a_t.shape[1]
    f_kphi = (w_mat.conj() @ t_mat).reshape(k, g_phi, g_phi)
    a_t = dicts.a_t
    s1 = np.matmul(np.matmul(a_t, f_kphi.transpose(0, 2, 1)), a_t.conj().T)
    vgrad = np.matmul(s1 + s1.conj().transpose(0, 2, 1), blocks)
    return float(v_p ** (1.0 / p)), v_p, vgrad


def t_p_dictionary(a_r, p):
    """AoA dictionary coherence: (sum over all column pairs of |a^H a'|^p)^(1/p)."""
    _require_even_p(p)
    gram = a_r.conj().T @ a_r
    return float(np.sum(np.abs(gram) ** p) ** (1.0 / p))


def f_psi_reference(blocks, dicts, p, entry_cap=DENSE_ENTRY_CAP):
    """Full-sensing-matrix objective, computed densely.

    Builds ``Psi`` over all K subcarriers and sums |psi_i^H psi_j|^p over
    every column pair, diagonal included. Refuses configurations whose
    dense matrix or Gram would exceed ``entry_cap`` entries.
    """
    _require_even_p(p)
    blocks = np.asarray(blocks, dtype=complex)
    everywhere = PilotDesign(
        blocks=blocks, allocation=tuple(range(blocks.shape[0])), total_power=1.0
    )
    op = build_sensing_matrix(everywhere, dicts)
    g = op.shape[1]
    if g * g > entry_cap:
        raise CapacityError(f"dense Gram would need {g * g} entries (cap {entry_cap})")
    psi = dense_psi(op, entry_cap)
    gram = psi.conj().T @ psi
    return float(np.sum(np.abs(gram) ** p) ** (1.0 / p))


def virtual_channel(dicts, alpha_virtual):
    """Map virtual path gains through B x conj(A_t) x A_r without forming it.

    Returns the stacked channel vector of length Nr*Nt*K. The contraction
    works on the (G_tau, G_phi, G_theta) reshape of the coefficients, so the
    full G-column dictionary is never materialized.
    """
    spec = dicts.spec
    alpha_virtual = np.asarray(alpha_virtual)
    if alpha_virtual.shape != (spec.total,):
        raise ValueError(f"expected {spec.total} virtual gains, got {alpha_virtual.shape}")
    cube = alpha_virtual.reshape(spec.g_tau, spec.g_phi, spec.g_theta)
    out = np.einsum(
        "kc,tf,rg,cfg->ktr", dicts.b, dicts.a_t.conj(), dicts.a_r, cube, optimize=True
    )
    return out.ravel()


def khatri_rao_channel(realization, config):
    """Stacked channel vector as one Kronecker column b(tau) x conj(a_t) x a_r per path."""
    a_r = np.stack(
        [steering_vector(t, config.num_rx, config.rx_spacing_wavelengths) for t in realization.aoas],
        axis=1,
    )
    a_t = np.stack(
        [steering_vector(p, config.num_tx, config.tx_spacing_wavelengths) for p in realization.aods],
        axis=1,
    )
    b = np.stack([delay_response(d, config) for d in realization.delays], axis=1)
    return np.einsum("kl,tl,rl,l->ktr", b, a_t.conj(), a_r, realization.gains).ravel()


def median_difference_ci(a, b, n_boot=2000, seed=0, confidence=0.95):
    """Paired bootstrap CI for median(a) - median(b) over shared trial indices."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.size == 0:
        raise ValueError("paired samples must share a non-empty shape")
    rng = np.random.default_rng(seed)
    n = a.size
    idx = rng.integers(0, n, (n_boot, n))
    diffs = np.median(a[idx], axis=1) - np.median(b[idx], axis=1)
    tail = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(diffs, tail)),
        float(np.quantile(diffs, 1.0 - tail)),
    )


def write_csv_rows(path, header, rows):
    """Write ``header`` and then ``rows`` through ``csv.writer`` with ``\n`` line endings.

    Callers format floats as ``repr(float(x))``; ints and text go in as they are.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
