"""Benchmark workloads, shared by ``run.py`` and its worker processes.

This module imports nothing heavy: the ``run.py`` process never loads numpy or
pilotopt, so that set-up time is measured in the worker processes alone.
"""

from __future__ import annotations

from dataclasses import dataclass

# BLAS is pinned to one thread in every worker. With the default two threads,
# estimate on the paper profile runs markedly slower on a 2-core machine, and
# the design trace changes in its last digits from run to run.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# ``run_estimate`` runs its trials on one thread. A pool of two on a 2-core
# shared host made the rate swing by a third from run to run with the load
# on the other core.
HARNESS_THREADS = 1


@dataclass(frozen=True)
class Workload:
    """One benchmark input set.

    ``iterations`` and ``trials`` override the profile value when set.
    ``designs`` Gaussian-random designs with allocation size K/8 are
    generated during set-up for an ``estimate`` workload. An ``estimate``
    repeat evaluates its trials in consecutive blocks of ``block_trials``,
    one ``run_estimate`` call per block.
    """

    name: str
    command: str
    profile: str
    iterations: int | None = None
    trials: int | None = None
    designs: int = 0
    block_trials: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        # Paper-size Gram tensor (32^2 x 64^2 complex): the coherence engine
        # does nearly all optimiser work. Iterations are cut so a repeat fits
        # a run; the run still ends with the paper-scale report and writes.
        Workload("design-paper", "design", "paper", iterations=20),
        # Cache-resident 256x256 tensor at the full 2000 iterations: per-call
        # dispatch, the Adam step and the trace write are a visible share.
        Workload("design-desk", "design", "desk"),
        # OMP, sensing-operator products and channel synthesis; the engine is
        # bypassed. 2 designs x 7 SNRs x 192 trials = 2688 OMP calls. Each
        # channel draw sets the NMSE of all 14 cells it serves, so the median
        # NMSE of a seed steadies with the number of trials: over 20 seeds it
        # moved by 0.19 of itself with 48 trials and 0.13 with 192. The trials
        # run as 24 calls of 8 (about 1.3 s each), so the rate is a median
        # over many short calls, which bursts of load on a shared host barely
        # move.
        Workload("estimate-paper", "estimate", "paper", trials=192, designs=2, block_trials=8),
    )
}
