"""Joint pilot allocation and sequence design by coherence minimization.

Minimizes the scale-invariant loss

    L(X) = f(X) / ||X||_F^2  +  lambda_bar * g(X) / ||X||_F

where ``f`` is the coherence objective on the pilot factor and ``g`` the
block-sparse penalty over subcarriers. Both quotients are homogeneous of
degree zero, so the power constraint is enforced only once at the end by
rescaling to the total budget. Descent uses the conjugate-variable
(Wirtinger) gradient with Adam updates; the second moment tracks squared
gradient magnitudes so updates are equivariant to global phase rotations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .coherence import CoherenceEngine, PilotDesign, _require_even_p
from .dictionary import DictionarySet
from .errors import DegenerateInputError, OptimizationDivergenceError

__all__ = [
    "OptimizerConfig",
    "TraceRecord",
    "block_penalty",
    "loss_and_gradient",
    "optimize",
    "extract_allocation",
    "gaussian_init",
]

# Smoothing floor inside 1/||X_k|| factors of the penalty gradient.
_BLOCK_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyper-parameters of the design loop (Adam defaults)."""

    p: int = 4
    q: float = 1.0
    lambda_bar: float = 0.0
    learning_rate: float = 1e-3
    iterations: int = 20_000
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    zero_threshold_rel: float = 1e-3

    def __post_init__(self) -> None:
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self) if f.type == "float"):
            raise ValueError("optimizer float parameters must be finite")
        _require_even_p(self.p)
        if not 0.0 < self.q <= 1.0:
            raise ValueError("q must lie in (0, 1]")
        if self.lambda_bar < 0:
            raise ValueError("lambda_bar must be non-negative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if not 0 < self.zero_threshold_rel < 1:
            raise ValueError("zero_threshold_rel must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


class TraceRecord(NamedTuple):
    """One recorded pass's loss terms; ``trace.csv``'s row and header."""

    iteration: int
    loss: float
    f_term: float
    g_term: float
    grad_norm: float


def block_penalty(blocks: np.ndarray, q: float) -> float:
    """Block-sparse penalty (sum_k ||X_k||_F^q)^(1/q)."""
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    return _penalty(np.linalg.norm(blocks, axis=(1, 2)), q)


def _penalty(norms: np.ndarray, q: float) -> float:
    return float(np.sum(norms**q) ** (1.0 / q))


def _gradient(
    blocks: np.ndarray, engine: CoherenceEngine, cfg: OptimizerConfig,
    scratch: tuple[np.ndarray, np.ndarray],
) -> tuple[float, np.ndarray, float, float]:
    """The loss, its Wirtinger gradient dL/dconj(X), and the loss's f and g terms.

    The gradient is the engine's fresh array, scaled in place with the
    operands and order of ``tests/oracles.py::reference_gradient``; other
    pilot-sized values go into ``scratch``, a real and a complex array of
    the blocks' shape.
    """
    real, cplx = scratch
    total_sq = float(np.sum(np.square(np.abs(blocks, out=real), out=real)))
    if total_sq == 0.0:
        raise DegenerateInputError("pilot variable is identically zero")
    total = np.sqrt(total_sq)

    f_val, v_p, grad = engine.f_value_and_vgrad(blocks, cfg.p)
    f_term = f_val / total_sq
    # f_term * (vgrad / (p v_p) - blocks / total_sq): numpy divides complex by
    # real as a * (1/d), so multiplying by the reciprocals gives the same bits.
    grad *= 1.0 / (cfg.p * v_p)
    grad -= np.multiply(blocks, 1.0 / total_sq, out=cplx)
    grad *= f_term

    g_term = 0.0
    if cfg.lambda_bar > 0:
        # np.linalg.norm(blocks, axis=(1, 2)), once, with its conj(X) X in the scratch.
        np.multiply(np.conjugate(blocks, out=cplx), blocks, out=cplx)
        norms = np.sqrt(np.add.reduce(cplx.real, axis=(1, 2)))
        g_val = _penalty(norms, cfg.q)
        g_term = cfg.lambda_bar * g_val / total
        safe = np.maximum(norms, _BLOCK_NORM_FLOOR)
        # Minimal-norm subgradient: exactly-zero blocks contribute nothing.
        ratio = np.where(norms > 0, (safe / g_val) ** cfg.q / safe**2, 0.0)
        coeff = (ratio - 1.0 / total_sq) * (g_val / (2.0 * total))
        grad += np.multiply(cfg.lambda_bar * coeff[:, None, None], blocks, out=cplx)

    return f_term + g_term, grad, f_term, g_term


def loss_and_gradient(blocks: np.ndarray, dicts: DictionarySet,
                      cfg: OptimizerConfig) -> tuple[float, np.ndarray]:
    """Scale-invariant design loss L(X) and its per-block conjugate-variable gradient."""
    blocks = np.asarray(blocks, dtype=complex)
    scratch = (np.empty(blocks.shape), np.empty_like(blocks))
    return _gradient(blocks, CoherenceEngine(dicts), cfg, scratch)[:2]


def extract_allocation(
    blocks: np.ndarray, zero_threshold_rel: float, total_power: float
) -> PilotDesign:
    """Threshold dead subcarriers and renormalize power onto the survivors.

    A subcarrier stays allocated iff its block Frobenius norm exceeds
    ``zero_threshold_rel`` times the largest block norm. Discarded blocks
    are hard-zeroed and the remaining blocks rescaled so their total power
    equals ``total_power``.
    """
    if not 0 < zero_threshold_rel < 1:  # below 1, the largest block is always kept
        raise ValueError("zero_threshold_rel must lie in (0, 1)")
    blocks = np.asarray(blocks, dtype=complex)
    if not np.all(np.isfinite(blocks)):
        raise ValueError("pilot blocks must be finite")
    norms = np.linalg.norm(blocks, axis=(1, 2))
    peak = float(norms.max()) if norms.size else 0.0
    if peak == 0.0:
        raise DegenerateInputError("every pilot block is zero")
    keep = norms > zero_threshold_rel * peak
    allocation = tuple(int(k) for k in np.flatnonzero(keep))
    trimmed = np.where(keep[:, None, None], blocks, 0.0)
    live_power = float(np.sum(np.abs(trimmed) ** 2))
    trimmed *= np.sqrt(total_power / live_power)
    return PilotDesign(blocks=trimmed, allocation=allocation, total_power=total_power)


def gaussian_init(
    num_subcarriers: int, num_tx: int, seq_len: int, seed
) -> np.ndarray:
    """i.i.d. unit-variance complex Gaussian starting point, shape (K, Nt, M)."""
    rng = np.random.default_rng(seed)
    shape = (num_subcarriers, num_tx, seq_len)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def optimize(
    initial_blocks: np.ndarray,
    dicts: DictionarySet,
    cfg: OptimizerConfig,
    total_power: float,
    trace_every: int = 1,
) -> tuple[PilotDesign, list[TraceRecord]]:
    """Run Adam on the Wirtinger gradient; return the final design and its trace.

    The trace holds one ``TraceRecord`` for every ``trace_every``-th pass
    and for passes ``T - 1`` and ``T``, in pass order.

    The loop is scale-free; the power budget enters only through the final
    rescaling ``X = sqrt(Pt) * X / ||X||_F`` before thresholding. Raises
    :class:`OptimizationDivergenceError`, carrying the iteration index, if
    the loss or the squared gradient norm turns non-finite.

    The pass state is ``x``, the moments ``m`` and ``v``, and the pass index
    ``t``. The arrays and two scratch arrays are allocated once per call and
    updated in place, with the operands and order of the formulas in
    ``tests/oracles.py::reference_optimize``, so every value is theirs. A
    pass allocates only the engine's fresh gradient, which the Adam step
    then reuses.
    """
    x = np.array(initial_blocks, dtype=complex)
    if x.ndim != 3:
        raise ValueError("initial blocks must have shape (K, Nt, M)")
    if trace_every < 1:
        raise ValueError("trace_every must be >= 1")
    engine = CoherenceEngine(dicts)

    m = np.zeros_like(x)
    v = np.zeros(x.shape)
    g2 = np.empty(x.shape)  # |g|^2, then v_hat; also _gradient's real scratch
    scratch = (g2, np.empty_like(x))
    trace: list[TraceRecord] = []

    # Pass t evaluates the iterate after t Adam steps; pass T, the final state, is
    # recorded but not stepped from. Warnings are off: the finiteness checks catch overflow.
    with np.errstate(all="ignore"):
        for t in range(cfg.iterations + 1):
            loss_val, grad, f_term, g_term = _gradient(x, engine, cfg, scratch)
            if not np.isfinite(loss_val):
                raise OptimizationDivergenceError(t, "loss is not finite")
            np.square(np.abs(grad, out=g2), out=g2)
            grad_sq = np.sum(g2)
            if not np.isfinite(grad_sq):
                raise OptimizationDivergenceError(t, "squared gradient norm is not finite")
            if t % trace_every == 0 or t >= cfg.iterations - 1:
                trace.append(TraceRecord(t, float(loss_val), f_term, float(g_term), math.sqrt(grad_sq)))
            if t == cfg.iterations:
                break
            # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) |g|^2
            m *= cfg.beta1
            m += np.multiply(grad, 1.0 - cfg.beta1, out=grad)
            v *= cfg.beta2
            v += np.multiply(g2, 1.0 - cfg.beta2, out=g2)
            # x -= lr m_hat / (sqrt(v_hat) + eps), in grad's and g2's memory; numpy
            # divides complex by real as a * (1/d), so the reciprocals give the same bits.
            step = np.multiply(m, 1.0 / (1.0 - cfg.beta1 ** (t + 1)), out=grad)  # m_hat
            v_hat = np.divide(v, 1.0 - cfg.beta2 ** (t + 1), out=g2)
            step *= cfg.learning_rate
            step *= np.divide(1.0, np.add(np.sqrt(v_hat, out=g2), cfg.eps, out=g2), out=g2)
            x -= step
            del grad, step  # freed before the next pass allocates its gradient
    del engine, m, v, scratch, g2, grad  # and the loop's arrays before the final rescaling

    scaled = np.sqrt(total_power) / math.sqrt(np.sum(np.abs(x) ** 2)) * x
    return extract_allocation(scaled, cfg.zero_threshold_rel, total_power), trace
