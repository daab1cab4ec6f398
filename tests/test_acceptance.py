"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Everything runs on the desk profile; the two full-scale checks are gated
behind the PILOTOPT_PAPER_SCALE environment variable because each takes about
2 minutes (20 000 paper-profile iterations on a 2-core host).
"""

import csv
import dataclasses
import json
import os
import time

import numpy as np
import pytest

from pilotopt import (
    ChannelRealization,
    GridSpec,
    PilotDesign,
    SystemConfig,
    assemble_channel,
    build_dictionaries,
    build_sensing_matrix,
    coherence_report,
    gaussian_init,
    load_design,
    load_experiment_config,
    loss_and_gradient,
    make_baseline_design,
    make_grids,
    nmse,
    omp_solve,
    optimize,
    reconstruct_channel,
    run_baseline,
    run_design,
    run_estimate,
    save_design,
    synthesize_measurement,
    welch_bound,
)
from pilotopt.cli import main as cli_main

from oracles import (
    block_penalty,
    build_omega,
    c_omega,
    expand_runs,
    f_omega,
    f_psi_reference,
    median_difference_ci,
    t_p_dictionary,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def desk():
    cfg = load_experiment_config("desk")
    dicts = build_dictionaries(cfg.grids, cfg.system)
    return cfg, dicts


@pytest.fixture(scope="module")
def optimized(desk):
    """Shared optimized design at the shipped desk defaults (seed 0)."""
    cfg, dicts = desk
    x0 = gaussian_init(
        cfg.system.num_subcarriers, cfg.system.num_tx, cfg.system.seq_len, cfg.optimizer.seed
    )
    design, trace = optimize(x0, dicts, cfg.optimizer, cfg.system.total_power, trace_every=10)
    assert trace[-1].loss <= trace[0].loss  # shipped defaults must make progress
    return design, trace


@pytest.fixture(scope="module")
def matched_baseline(desk, optimized):
    cfg, _ = desk
    design, _ = optimized
    return make_baseline_design(cfg, len(design.allocation), (cfg.base_seed, 2))


def test_criterion_01_gradient_correctness(desk):
    cfg, dicts = desk
    shape = (cfg.system.num_subcarriers, cfg.system.num_tx, cfg.system.seq_len)
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        d = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        d /= np.linalg.norm(d)
        grad = loss_and_gradient(x, dicts, cfg.optimizer)[1]
        analytic = 2.0 * np.real(np.vdot(grad, d))
        step = 1e-5
        plus, _ = loss_and_gradient(x + step * d, dicts, cfg.optimizer)
        minus, _ = loss_and_gradient(x - step * d, dicts, cfg.optimizer)
        fd = (plus - minus) / (2 * step)
        worst = max(worst, abs(fd - analytic) / max(abs(fd), abs(analytic)))
    elapsed = time.perf_counter() - started
    _report(
        "criterion 1 (gradient correctness)",
        worst <= 1e-4 and elapsed < 120.0,
        f"worst rel err {worst:.2e} over 10 pairs in {elapsed:.1f}s",
    )


def test_criterion_02_decomposition_oracle(desk):
    cfg, dicts = desk
    shape = (cfg.system.num_subcarriers, cfg.system.num_tx, cfg.system.seq_len)
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(5):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        lhs = f_psi_reference(x, dicts, cfg.optimizer.p)
        rhs = t_p_dictionary(dicts.a_r, cfg.optimizer.p) * f_omega(x, dicts, cfg.optimizer.p)
        worst = max(worst, abs(lhs - rhs) / lhs)
    elapsed = time.perf_counter() - started
    _report(
        "criterion 2 (decomposition oracle)",
        worst <= 1e-8 and elapsed < 60.0,
        f"worst rel err {worst:.2e} over 5 designs in {elapsed:.1f}s",
    )


def test_criterion_03_gram_oracle(desk):
    cfg, dicts = desk
    shape = (cfg.system.num_subcarriers, cfg.system.num_tx, cfg.system.seq_len)
    rng = np.random.default_rng(303)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    omega = build_omega(x, dicts)
    gram = omega.conj().T @ omega
    scale = float(np.abs(gram).max())
    g_tau, g_phi = cfg.grids.g_tau, cfg.grids.g_phi
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        gt, gt2 = rng.integers(0, g_tau, 2)
        gp, gp2 = rng.integers(0, g_phi, 2)
        fast = c_omega(x, dicts, gt, gt2, gp, gp2)
        ref = gram[gt * g_phi + gp, gt2 * g_phi + gp2]
        # relative to the Gram scale so near-zero entries stay meaningful
        worst = max(worst, abs(fast - ref) / scale)
    elapsed = time.perf_counter() - started
    _report(
        "criterion 3 (Gram oracle)",
        worst <= 1e-10 and elapsed < 30.0,
        f"worst scaled err {worst:.2e} over 100 tuples in {elapsed:.1f}s",
    )


def test_criterion_04_homogeneity_suite(desk):
    cfg, dicts = desk
    shape = (cfg.system.num_subcarriers, cfg.system.num_tx, cfg.system.seq_len)
    rng = np.random.default_rng(404)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    p, q = cfg.optimizer.p, cfg.optimizer.q
    f_base = f_omega(x, dicts, p)
    g_base = block_penalty(x, q)
    l_base = loss_and_gradient(x, dicts, cfg.optimizer)[0]
    worst = 0.0
    for s in (0.5, 2.0, 3.0):
        worst = max(worst, abs(f_omega(s * x, dicts, p) - s**2 * f_base) / (s**2 * f_base))
        worst = max(worst, abs(block_penalty(s * x, q) - s * g_base) / (s * g_base))
        worst = max(worst, abs(loss_and_gradient(s * x, dicts, cfg.optimizer)[0] - l_base) / l_base)
    _report(
        "criterion 4 (homogeneity suite)",
        worst <= 1e-10,
        f"worst rel deviation {worst:.2e} for s in {{0.5, 2, 3}}",
    )


def test_criterion_05_optimization_progress(desk):
    cfg, dicts = desk
    opt = dataclasses.replace(cfg.optimizer, lambda_bar=0.0, iterations=2000)
    drops = []
    smoothed_ok = []
    for seed in range(5):
        x0 = gaussian_init(
            cfg.system.num_subcarriers, cfg.system.num_tx, cfg.system.seq_len, seed
        )
        _, trace = optimize(x0, dicts, opt, cfg.system.total_power)
        drops.append(1.0 - trace[-1].f_term / trace[0].f_term)
        window = np.ones(100) / 100.0
        smoothed = np.convolve([r.loss for r in trace], window, mode="valid")
        smoothed_ok.append(smoothed[-1] < smoothed[0])
    median_drop = float(np.median(drops))
    _report(
        "criterion 5 (optimization progress)",
        median_drop >= 0.10 and all(smoothed_ok),
        f"median coherence-term drop {median_drop * 100:.1f}% over 5 seeds; "
        f"smoothed loss decreased in {sum(smoothed_ok)}/5 runs",
    )


def test_criterion_06_sparsity_control(desk):
    cfg, dicts = desk
    lambdas = [0.7, 1.1, 1.8, 2.8, 4.4, 7.0]  # log-spaced over the studied range
    medians = []
    for lam in lambdas:
        opt = dataclasses.replace(cfg.optimizer, lambda_bar=lam, iterations=2000)
        sizes = []
        for seed in range(3):
            x0 = gaussian_init(
                cfg.system.num_subcarriers, cfg.system.num_tx, cfg.system.seq_len, seed
            )
            design, _ = optimize(x0, dicts, opt, cfg.system.total_power, trace_every=500)
            sizes.append(len(design.allocation))
        medians.append(float(np.median(sizes)))
    weakly_decreasing = all(a >= b for a, b in zip(medians, medians[1:]))
    _report(
        "criterion 6 (sparsity control)",
        weakly_decreasing,
        f"median allocation sizes {medians} over lambdas {lambdas}",
    )


_paper_scale = pytest.mark.skipif(
    not os.environ.get("PILOTOPT_PAPER_SCALE"),
    reason="full-scale run takes about 2 minutes; set PILOTOPT_PAPER_SCALE=1 to enable",
)


@_paper_scale
def test_criterion_06_long_run_full_scale():
    cfg = load_experiment_config("paper")
    dicts = build_dictionaries(cfg.grids, cfg.system)
    opt = dataclasses.replace(cfg.optimizer, lambda_bar=1.5)
    x0 = gaussian_init(
        cfg.system.num_subcarriers, cfg.system.num_tx, cfg.system.seq_len, cfg.optimizer.seed
    )
    design, _ = optimize(x0, dicts, opt, cfg.system.total_power, trace_every=100)
    q = len(design.allocation)
    _report(
        "criterion 6 long-run (full scale)",
        7 <= q <= 12,
        f"lambda_bar=1.5 gave Q={q} (reported value 9, accepted range [7, 12])",
    )


@_paper_scale
def test_paper_scale_ordering(tmp_path):
    # The paper pipeline with default seeds: design, matched baseline, report
    # of both, and estimate on the default 200 trials.
    paper = ["--profile", "paper"]
    optimized = tmp_path / "d" / "design_optimized.json"
    baseline = tmp_path / "design_gauss_random.json"
    assert cli_main(["design", *paper, "--trace-every", "100", "--out", str(tmp_path / "d")]) == 0
    assert cli_main(["baseline", *paper, "--match-design", str(optimized),
                     "--out", str(baseline)]) == 0
    scores = []
    for design in (optimized, baseline):
        out = tmp_path / design.stem
        assert cli_main(["report", *paper, "--design", str(design), "--out", str(out)]) == 0
        summary = json.loads(next(out.glob("*_coherence_summary.json")).read_text())
        runs = next(out.glob("*_inner_product_cdf.csv")).read_text().splitlines()
        scores.append((summary["generalized_p"], float(runs[-1].split(",")[1])))
    assert cli_main(["estimate", *paper, "--out", str(tmp_path / "e"),
                     "--designs", str(optimized), str(baseline)]) == 0
    with open(tmp_path / "e" / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # summary.csv lists the designs' rows in --designs order, one per SNR
    medians = {}
    for r in rows:
        medians.setdefault(r["method"], []).append(float(r["nmse_median"]))
    (p_opt, max_opt), (p_base, max_base) = scores
    med_opt, med_base = medians.values()
    ok = (
        p_opt < p_base
        and max_opt < max_base
        and all(o < b for o, b in zip(med_opt, med_base, strict=True))
    )
    _report(
        "paper-scale ordering",
        ok,
        f"generalized_p {p_opt:.2f} < {p_base:.2f}, Omega inner-product max "
        f"{max_opt:.3f} < {max_base:.3f}, median NMSE {min(med_opt):.4f}-{max(med_opt):.4f} "
        f"against {min(med_base):.4f}-{max(med_base):.4f}",
    )


def _orthogonal_instance():
    cfg = SystemConfig(
        bandwidth_hz=1.92e6,
        num_subcarriers=16,
        num_tx=8,
        num_rx=4,
        seq_len=8,
        total_power=128.0,
        num_delay_taps=8,
    )
    spec = GridSpec(g_theta=4, g_phi=8, g_tau=8)
    dicts = build_dictionaries(spec, cfg)
    scale = np.sqrt(cfg.total_power / (cfg.num_subcarriers * cfg.num_tx))
    blocks = np.broadcast_to(
        scale * np.eye(cfg.num_tx), (cfg.num_subcarriers, cfg.num_tx, cfg.num_tx)
    ).copy()
    design = PilotDesign(
        blocks=blocks, allocation=tuple(range(cfg.num_subcarriers)), total_power=cfg.total_power
    )
    return cfg, spec, dicts, design


def test_criterion_07_omp_exactness():
    cfg, spec, dicts, design = _orthogonal_instance()
    op = build_sensing_matrix(design, dicts)
    mu = coherence_report(design, dicts, 4).mutual_coherence
    rng = np.random.default_rng(707)
    theta, phi, tau = make_grids(spec, cfg)
    worst_nmse = 0.0
    support_ok = True
    for sparsity in (1, 2):
        for _ in range(3):
            atoms = sorted(int(v) for v in rng.choice(spec.total, sparsity, replace=False))
            gains = rng.standard_normal(sparsity) + 1j * rng.standard_normal(sparsity)
            g_tau, g_phi, g_theta = np.unravel_index(atoms, (spec.g_tau, spec.g_phi, spec.g_theta))
            realization = ChannelRealization(
                aoas=theta[g_theta],
                aods=phi[g_phi],
                delays=tau[g_tau],
                gains=gains,
            )
            h = assemble_channel(realization, cfg)
            y = synthesize_measurement(h, design, 0.0, 0)
            est = omp_solve(y, op, max_sparsity=sparsity)
            support_ok &= sorted(est.support) == atoms
            worst_nmse = max(worst_nmse, nmse(h.stacked, reconstruct_channel(est, dicts).stacked))
    _report(
        "criterion 7 (OMP exactness)",
        mu < 1.0 / 3.0 and support_ok and worst_nmse <= 1e-10,
        f"mu={mu:.2e} < 1/3, exact supports, worst NMSE {worst_nmse:.2e}",
    )


def test_criterion_08_coherence_inequality(desk, optimized, matched_baseline):
    cfg, dicts = desk
    results = []
    for name, design in (("optimized", optimized[0]), ("gauss_random", matched_baseline)):
        report = coherence_report(design, dicts, cfg.optimizer.p)
        bound = welch_bound(report.n_obs, report.n_atoms)
        results.append((name, bound, report.mutual_coherence, bound <= report.mutual_coherence))
    ok = all(r[3] for r in results)
    detail = "; ".join(f"{n}: welch {b:.4f} <= mu {m:.4f}" for n, b, m, _ in results)
    _report("criterion 8 (coherence inequality)", ok, detail)


def test_criterion_09_end_to_end_ordering(desk, optimized, matched_baseline, tmp_path):
    cfg, _ = desk
    eval_cfg = dataclasses.replace(
        cfg.evaluation, snr_db_list=(10.0,), num_trials=200
    )
    run_cfg = dataclasses.replace(cfg, evaluation=eval_cfg)
    opt_path = tmp_path / "design_optimized.json"
    base_path = tmp_path / "design_gauss_random.json"
    save_design(optimized[0], opt_path)
    save_design(matched_baseline, base_path)
    started = time.perf_counter()
    out = run_estimate(run_cfg, [opt_path, base_path], tmp_path / "est")
    elapsed = time.perf_counter() - started
    opt_vals = out["nmse"][out["methods"].index("optimized"), 0]
    base_vals = out["nmse"][out["methods"].index("gauss_random"), 0]
    lo, hi = median_difference_ci(opt_vals, base_vals, n_boot=2000, seed=909)
    ok = (
        np.median(opt_vals) < np.median(base_vals)
        and hi < 0.0
        and elapsed < 1800.0
    )
    _report(
        "criterion 9 (end-to-end ordering)",
        ok,
        f"median NMSE optimized {np.median(opt_vals):.4f} < baseline "
        f"{np.median(base_vals):.4f}; 95% CI of median difference "
        f"[{lo:.4f}, {hi:.4f}] excludes 0; {elapsed:.0f}s for 200 paired trials",
    )


def test_criterion_10_cdf_tail_shift(desk, optimized):
    cfg, dicts = desk
    shifts = []
    for seed in range(3):
        if seed == cfg.optimizer.seed:
            design = optimized[0]
        else:
            opt = dataclasses.replace(cfg.optimizer, seed=seed)
            x0 = gaussian_init(
                cfg.system.num_subcarriers, cfg.system.num_tx, cfg.system.seq_len, seed
            )
            design, _ = optimize(x0, dicts, opt, cfg.system.total_power, trace_every=500)
        baseline = make_baseline_design(cfg, len(design.allocation), (seed, 2))
        p = cfg.optimizer.p
        p99_opt, p99_base = (
            float(np.quantile(expand_runs(coherence_report(d, dicts, p).inner_product_runs), 0.99))
            for d in (design, baseline)
        )
        shifts.append((seed, p99_opt, p99_base))
    ok = all(o < b for _, o, b in shifts)
    detail = "; ".join(f"seed {s}: p99 {o:.3f} < {b:.3f}" for s, o, b in shifts)
    _report("criterion 10 (CDF tail shift)", ok, detail)


def test_criterion_11_estimate_determinism(tmp_path):
    cfg_file = tmp_path / "determinism.cfg"
    cfg_file.write_text("iterations = 40\nnum_trials = 20\nsnr_db_list = 10\n")
    base = ["--profile", "desk", "--config", str(cfg_file)]
    assert cli_main(["design", *base, "--out", str(tmp_path / "d")]) == 0
    design = tmp_path / "d" / "design_optimized.json"
    outputs = []
    for run in ("e1", "e2"):
        assert (
            cli_main(
                ["estimate", *base, "--threads", "1", "--out", str(tmp_path / run),
                 "--designs", str(design)]
            )
            == 0
        )
        outputs.append(
            (
                (tmp_path / run / "trials.csv").read_bytes(),
                (tmp_path / run / "summary.csv").read_bytes(),
            )
        )
    ok = outputs[0] == outputs[1]
    _report(
        "criterion 11 (estimate determinism)",
        ok,
        "two single-threaded runs produced byte-identical trials.csv and summary.csv",
    )


def test_criterion_12_seed_grid_ordering(desk, tmp_path):
    # Criterion, fixed before the run: on every (opt_seed, base_seed) pair of a
    # 4 x 4 grid, the optimized design has the lower median NMSE (10 dB, 200
    # trials) and the lower generalized coherence than the matched baseline.
    # A trial's channel seed is base_seed + trial, so base seeds spaced 1000
    # apart share no channel; seeds 0..3 would share 199 of their 200.
    cfg, dicts = desk
    ev = dataclasses.replace(cfg.evaluation, snr_db_list=(10.0,), num_trials=200)
    pairs = []
    for opt_seed in range(4):
        opt_cfg = dataclasses.replace(cfg.optimizer, seed=opt_seed)
        # The design depends on opt_seed alone, so each row of the grid shares it.
        opt_path = run_design(dataclasses.replace(cfg, optimizer=opt_cfg),
                              tmp_path / f"d{opt_seed}")["design"]
        optimized = load_design(opt_path)
        p_opt = coherence_report(optimized, dicts, cfg.optimizer.p).generalized
        for base_seed in (0, 1000, 2000, 3000):
            run_cfg = dataclasses.replace(cfg, optimizer=opt_cfg, evaluation=ev,
                                          base_seed=base_seed)
            out = tmp_path / f"{opt_seed}_{base_seed}"
            base_path = run_baseline(run_cfg, len(optimized.allocation),
                                     out / "design_gauss_random.json")
            med_opt, med_base = np.median(
                run_estimate(run_cfg, [opt_path, base_path], out / "e")["nmse"][:, 0], axis=1
            )
            p_base = coherence_report(load_design(base_path), dicts, cfg.optimizer.p).generalized
            pairs.append((opt_seed, base_seed, med_opt, med_base, p_opt, p_base))
    ordered = [r for r in pairs if r[2] < r[3] and r[4] < r[5]]
    nmse_pair = min(pairs, key=lambda r: (r[3] - r[2]) / r[3])
    p_pair = min(pairs, key=lambda r: (r[5] - r[4]) / r[5])
    _report(
        "criterion 12 (desk ordering over a seed grid)",
        len(ordered) == len(pairs),
        f"{len(ordered)} of {len(pairs)} (opt_seed, base_seed) pairs ordered on both "
        f"measures; closest median NMSE {nmse_pair[2]:.4f} < {nmse_pair[3]:.4f} "
        f"{nmse_pair[:2]}, closest generalized_p {p_pair[4]:.2f} < {p_pair[5]:.2f} "
        f"{p_pair[:2]}",
    )
