"""Slow reference implementations that the library's fast paths are checked against.

Each oracle evaluates a quantity straight from its defining formula: the
dense pilot factor ``Omega`` from its Kronecker columns, one Omega Gram
entry from the subcarrier sum, the coherence objective and its gradient
from the full (G_tau^2, G_phi^2) Omega Gram tensor, the dense ``Psi =
Omega kron A_r`` (behind a memory cap) and its forward product, OMP with
one dense adjoint ``Psi^H r`` per step, the full-sensing-matrix objective
from a dense ``Psi``, the normalized Gram of a design's dense ``Omega``,
mutual and generalized coherence from a dense normalized Gram, the
report's CDFs expanded entry by entry from the delay-difference rows and,
through ``expand_runs``, from the report's own (value, count) runs, the AoA
dictionary coherence from its dense Gram, the flat grid index of a
(delay, AoD, AoA) tuple, the channel of a virtual-gain vector and of a
path realization as sums of Kronecker (Khatri-Rao) columns. ``f_omega``
is the engine's objective value alone, for tests that need no gradient.
``one_product_gram_rows`` forms the delay-difference rows from the whole
(Q, G_phi, G_phi) stack of column products in one product; the library's
blocked ``coherence._gram_rows`` must match it bit for bit.
``reference_optimize`` is the design loop with an out-of-place Adam step
and every complex-by-real scaling, in it and in ``reference_gradient``,
written as a quotient; the library's loop, which multiplies by
reciprocals, must match it bit for bit. Both take whole-array squared
norms with the library's pairwise ``np.sum(np.abs(a) ** 2)``, since their
subject is the Adam formulas, not the reduction.
``median_difference_ci`` is the paired bootstrap interval the end-to-end
acceptance criterion is judged by. ``write_csv_rows`` is the row-wise
``csv.writer`` route that the table writer ``harness._write_csv`` and the
CDF writer ``harness._write_cdf`` must match byte for byte, and
``design_json`` the whole-payload text that ``harness.save_design``, which
encodes one pilot row at a time, must write byte for byte.
"""

import csv
import json
import math
from dataclasses import replace

import numpy as np

from pilotopt import (
    CoherenceEngine,
    OptimizationTrace,
    PilotDesign,
    SparseEstimate,
    block_penalty,
    delay_response,
    extract_allocation,
    steering_vector,
)
from pilotopt.coherence import _DENSE_ENTRY_CAP
from pilotopt.optimizer import _BLOCK_NORM_FLOOR


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


def build_omega(blocks, dicts):
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


def sensing_omega(design, dicts):
    """Dense ``Omega`` on the allocated subcarriers, in ascending order."""
    sel = list(design.allocation)
    return build_omega(design.blocks[sel], replace(dicts, b=dicts.b[sel]))


def one_product_gram_rows(r, w_t):
    """Delay-difference rows ``c_d = sum_k w_t[d, k] conj(r_k) r_k^T`` from all column products at once."""
    q, g_phi, _ = r.shape
    p_mat = np.matmul(r.conj(), r.transpose(0, 2, 1))  # (Q, G_phi, G_phi)
    return (w_t @ p_mat.reshape(q, g_phi * g_phi)).reshape(-1, g_phi, g_phi)


def dense_psi(design, dicts, entry_cap=_DENSE_ENTRY_CAP):
    """The sensing matrix ``Omega kron A_r``, refused above ``entry_cap`` entries."""
    n = dicts.num_rx * design.seq_len * len(design.allocation)
    g = dicts.spec.total
    if n * g > entry_cap:
        raise CapacityError(f"dense sensing matrix would need {n * g} entries (cap {entry_cap})")
    return np.kron(sensing_omega(design, dicts), dicts.a_r)


def psi_matvec(design, dicts, x):
    """Forward product ``Psi x`` as ``vec(Omega X A_r^T)``, X the (G_tau G_phi, G_theta) reshape."""
    omega = sensing_omega(design, dicts)
    cube = np.asarray(x).reshape(omega.shape[1], dicts.a_r.shape[1])
    return (omega @ cube @ dicts.a_r.T).ravel()


def dense_rmatvec(omega, a_r, y):
    """Adjoint product ``Psi^H y`` as ``vec(Omega^H Y conj(A_r))``, Y the (Q M, Nr) reshape."""
    mat = np.asarray(y).reshape(omega.shape[0], a_r.shape[0])
    return (omega.conj().T @ mat @ a_r.conj()).ravel()


def dense_omp_solve(y, omega, a_r, max_sparsity):
    """OMP with one dense adjoint ``Psi^H r`` of the residual per step.

    Same selection rule, least-squares refit and early stop as the
    library's ``omp_solve``, with correlations taken straight from the
    residual instead of through the Gram.
    """
    y = np.asarray(y, dtype=complex)
    n_theta = a_r.shape[1]
    norms = np.kron(np.linalg.norm(omega, axis=0), np.linalg.norm(a_r, axis=0))
    floor = 1e-12 * float(np.linalg.norm(y))
    support = []
    coefficients = np.zeros(0, dtype=complex)
    residual = y
    residual_norm = float(np.linalg.norm(y))
    while len(support) < max_sparsity and residual_norm > floor:
        corr = np.abs(dense_rmatvec(omega, a_r, residual)) / norms
        corr[support] = -1.0
        support.append(int(np.argmax(corr)))
        atoms = [divmod(g, n_theta) for g in support]
        basis = np.column_stack([np.outer(omega[:, j], a_r[:, i]).ravel() for j, i in atoms])
        coefficients = np.linalg.lstsq(basis, y, rcond=None)[0]
        residual = y - basis @ coefficients
        residual_norm = float(np.linalg.norm(residual))
    return SparseEstimate(
        support=tuple(support), coefficients=coefficients, residual_norm=residual_norm
    )


def _off_diagonal_normalized_gram(matrix):
    """|<m_i, m_j>| / (||m_i|| ||m_j||) for i != j, zero on the diagonal."""
    matrix = np.asarray(matrix)
    norms = np.linalg.norm(matrix, axis=0)
    gram = np.abs(matrix.conj().T @ matrix) / np.outer(norms, norms)
    np.fill_diagonal(gram, 0.0)
    return gram


def normalized_omega_gram(design, dicts):
    """Normalized off-diagonal Gram of the dense pilot factor on the allocated subcarriers."""
    return _off_diagonal_normalized_gram(sensing_omega(design, dicts))


def expanded_cdfs(rows, norms):
    """The report's CDFs with every pair and column written out, then sorted.

    ``rows`` are the normalized delay-difference rows (G_tau, G_phi, G_phi)
    and ``norms`` the G_phi Omega column norms: row ``d > 0`` is one pair per
    entry for each of its ``G_tau - d`` delay offsets, row 0's upper triangle
    one per delay, and each norm belongs to ``G_tau`` columns.
    """
    g_tau, g_phi, _ = rows.shape
    upper = rows[0][np.triu_indices(g_phi, k=1)]
    inner = np.repeat(rows[1:], g_tau - np.arange(1, g_tau), axis=0).ravel()
    inner = np.concatenate([np.tile(upper, g_tau), inner])
    return np.sort(inner), np.sort(np.tile(norms, g_tau))


def expand_runs(runs):
    """A report CDF's sorted (value, count) runs as the plain sorted array."""
    return np.repeat(*runs)


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


def reference_gradient(blocks, engine, cfg):
    """The design loss's Wirtinger gradient and terms, with the quotients of its formula."""
    total_sq = float(np.sum(np.abs(blocks) ** 2))
    total = np.sqrt(total_sq)
    f_val, v_p, vgrad = engine.f_value_and_vgrad(blocks, cfg.p)
    f_term = f_val / total_sq
    grad = f_term * (vgrad / (cfg.p * v_p) - blocks / total_sq)
    g_term = 0.0
    if cfg.lambda_bar > 0:
        norms = np.linalg.norm(blocks, axis=(1, 2))
        g_val = block_penalty(blocks, cfg.q)
        g_term = cfg.lambda_bar * g_val / total
        safe = np.maximum(norms, _BLOCK_NORM_FLOOR)
        ratio = np.where(norms > 0, (safe / g_val) ** cfg.q / safe**2, 0.0)
        coeff = (ratio - 1.0 / total_sq) * (g_val / (2.0 * total))
        grad = grad + cfg.lambda_bar * coeff[:, None, None] * blocks
    return grad, f_term + g_term, f_term, g_term


def reference_optimize(initial_blocks, dicts, cfg, total_power, trace_every=1):
    """``optimize`` with each Adam update written out of place, as in its formulas."""
    x = np.array(initial_blocks, dtype=complex)
    engine = CoherenceEngine(dicts)
    m = np.zeros_like(x)
    v = np.zeros(x.shape)
    records = []
    for t in range(cfg.iterations + 1):
        grad, loss_val, f_term, g_term = reference_gradient(x, engine, cfg)
        if t % trace_every == 0 or t >= cfg.iterations - 1:
            records.append((t, loss_val, f_term, g_term, math.sqrt(np.sum(np.abs(grad) ** 2))))
        if t == cfg.iterations:
            break
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * grad
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * np.abs(grad) ** 2
        m_hat = m / (1.0 - cfg.beta1 ** (t + 1))
        v_hat = v / (1.0 - cfg.beta2 ** (t + 1))
        x = x - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
    scaled = np.sqrt(total_power) / math.sqrt(np.sum(np.abs(x) ** 2)) * x
    design = extract_allocation(scaled, cfg.zero_threshold_rel, total_power)
    trace = OptimizationTrace(*(np.asarray(column) for column in zip(*records)))
    return design, trace


def t_p_dictionary(a_r, p):
    """AoA dictionary coherence: (sum over all column pairs of |a^H a'|^p)^(1/p)."""
    _require_even_p(p)
    gram = a_r.conj().T @ a_r
    return float(np.sum(np.abs(gram) ** p) ** (1.0 / p))


def f_psi_reference(blocks, dicts, p, entry_cap=_DENSE_ENTRY_CAP):
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
    g = dicts.spec.total
    if g * g > entry_cap:
        raise CapacityError(f"dense Gram would need {g * g} entries (cap {entry_cap})")
    psi = dense_psi(everywhere, dicts, entry_cap)
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


def design_json(design):
    """A design file's text as one ``json.dumps`` of the whole payload, plus a newline."""
    k, nt, m = design.blocks.shape
    full = design.blocks.transpose(1, 0, 2).reshape(nt, k * m)  # Nt x (M*K)
    payload = {
        "K": design.num_subcarriers,
        "M": design.seq_len,
        "Nt": design.num_tx,
        "Pt": design.total_power,
        "allocation": list(design.allocation),
        "x_real": full.real.tolist(),
        "x_imag": full.imag.tolist(),
    }
    return json.dumps(payload) + "\n"
