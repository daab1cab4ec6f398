"""Slow reference implementations that the library's fast paths are checked against.

Each oracle evaluates a quantity straight from its defining formula: one
Omega Gram entry from the subcarrier sum, the full-sensing-matrix objective
from a dense ``Psi``, the AoA dictionary coherence from its dense Gram, the
channel of a virtual-gain vector and of a path realization as sums of
Kronecker (Khatri-Rao) columns.
"""

import numpy as np

from pilotopt import (
    CapacityError,
    PilotDesign,
    build_sensing_matrix,
    delay_response,
    steering_vector,
)
from pilotopt.coherence import DENSE_ENTRY_CAP


def _require_even_p(p):
    if p < 2 or p % 2 != 0:
        raise ValueError("p must be an even integer >= 2")


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
    psi = op.to_dense(entry_cap)
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
