import logging

import numpy as np
import pytest

from pilotopt import (
    ChannelRealization,
    DegenerateInputError,
    DictionarySet,
    GridSpec,
    PilotDesign,
    SensingOperator,
    SystemConfig,
    assemble_channel,
    build_dictionaries,
    build_sensing_matrix,
    coherence_report,
    load_experiment_config,
    make_baseline_design,
    make_grids,
    nmse,
    omp_solve,
    reconstruct_channel,
    sample_channel,
    snr_sigma2,
    synthesize_measurement,
)

from oracles import dense_omp_solve, dense_rmatvec, sensing_omega, virtual_channel


def small_config(**overrides):
    base = dict(
        bandwidth_hz=1.92e6,
        num_subcarriers=8,
        num_tx=4,
        num_rx=2,
        seq_len=4,
        total_power=32.0,
        num_delay_taps=4,
    )
    base.update(overrides)
    return SystemConfig(**base)


def orthogonal_design(cfg):
    """Scaled-identity blocks with M = Nt on every subcarrier."""
    k, nt = cfg.num_subcarriers, cfg.num_tx
    scale = np.sqrt(cfg.total_power / (k * nt))
    blocks = np.broadcast_to(scale * np.eye(nt), (k, nt, nt)).copy()
    return PilotDesign(blocks=blocks, allocation=tuple(range(k)), total_power=cfg.total_power)


def orthogonal_setup():
    """Design/dictionary pair whose sensing matrix has orthogonal columns.

    DFT-spaced angle grids (G = array size) and tap-spaced delays make each
    dictionary factor orthogonal, and identity pilot blocks keep it so.
    """
    cfg = small_config()
    spec = GridSpec(g_theta=cfg.num_rx, g_phi=cfg.num_tx, g_tau=cfg.num_delay_taps)
    dicts = build_dictionaries(spec, cfg)
    design = orthogonal_design(cfg)
    return cfg, spec, dicts, design


def on_grid_channel(dicts, spec, grid_indices, gains, cfg):
    g_tau, g_phi, g_theta = np.unravel_index(grid_indices, (spec.g_tau, spec.g_phi, spec.g_theta))
    theta, phi, tau = make_grids(spec, cfg)
    realization = ChannelRealization(
        aoas=theta[g_theta], aods=phi[g_phi], delays=tau[g_tau],
        gains=np.asarray(gains, dtype=complex),
    )
    return assemble_channel(realization, cfg)


class TestSynthesizeMeasurement:
    def test_zero_channel_zero_noise(self):
        cfg, _, _, design = orthogonal_setup()
        h = on_grid_channel(*_pick_one())
        zero = type(h)(per_subcarrier=np.zeros_like(h.per_subcarrier))
        y = synthesize_measurement(zero, design, 0.0, 0)
        np.testing.assert_array_equal(y, 0.0)

    def test_noiseless_least_squares_recovers_channel(self):
        # with M = Nt and invertible blocks, per-subcarrier LS is exact
        cfg, spec, dicts, design = orthogonal_setup()
        h = on_grid_channel(dicts, spec, [5, 17], [1.0, -0.5j], cfg)
        y = synthesize_measurement(h, design, 0.0, 0)
        m, nr = cfg.seq_len, cfg.num_rx
        for slot, k in enumerate(design.allocation):
            block = y[slot * m * nr : (slot + 1) * m * nr].reshape(nr, m, order="F")
            recovered = block @ np.linalg.pinv(design.blocks[k])
            np.testing.assert_allclose(recovered, h.per_subcarrier[k], atol=1e-10)

    def test_deterministic_noise(self):
        cfg, spec, dicts, design = orthogonal_setup()
        h = on_grid_channel(dicts, spec, [3], [1.0], cfg)
        a = synthesize_measurement(h, design, 0.5, 42)
        b = synthesize_measurement(h, design, 0.5, 42)
        np.testing.assert_array_equal(a, b)

    def test_linear_in_channel_for_fixed_noise(self):
        cfg, spec, dicts, design = orthogonal_setup()
        h1 = on_grid_channel(dicts, spec, [3], [1.0], cfg)
        h2 = on_grid_channel(dicts, spec, [9], [2.0j], cfg)
        both = on_grid_channel(dicts, spec, [3, 9], [1.0, 2.0j], cfg)
        zero = type(h1)(per_subcarrier=np.zeros_like(h1.per_subcarrier))
        y = lambda h: synthesize_measurement(h, design, 0.3, 7)
        noise = y(zero)
        np.testing.assert_allclose(
            y(both) - noise, (y(h1) - noise) + (y(h2) - noise), atol=1e-10
        )

    @pytest.mark.parametrize("profile", ["desk", "paper"])
    def test_matches_per_subcarrier_loop_bitwise(self, profile):
        cfg = load_experiment_config(profile)
        s = cfg.system
        h = assemble_channel(sample_channel(s, cfg.channel.num_paths, cfg.channel.rician_k_db, 3), s)
        for q in (1, s.num_subcarriers // 8, s.num_subcarriers):
            design = make_baseline_design(cfg, q, 5)
            loop = np.concatenate([(h.per_subcarrier[k] @ design.blocks[k]).ravel(order="F")
                                   for k in design.allocation])
            assert synthesize_measurement(h, design, 0.0, 0).tobytes() == loop.tobytes()

    def test_dimension_mismatch_rejected(self):
        cfg, spec, dicts, design = orthogonal_setup()
        other = small_config(num_tx=3, seq_len=3)
        h = assemble_channel(
            ChannelRealization(aoas=np.zeros(1), aods=np.zeros(1), delays=np.zeros(1),
                               gains=np.ones(1, dtype=complex)),
            other,
        )
        with pytest.raises(ValueError):
            synthesize_measurement(h, design, 0.0, 0)


def _pick_one():
    cfg, spec, dicts, _ = orthogonal_setup()
    return dicts, spec, [0], [1.0], cfg


class TestOmpSolve:
    def test_one_sparse_exact(self):
        cfg, spec, dicts, design = orthogonal_setup()
        op = build_sensing_matrix(design, dicts)
        g = 13
        coeff = 1.7 - 0.4j
        y = coeff * op.column(g)
        est = omp_solve(y, op, max_sparsity=1)
        assert est.support == (g,)
        np.testing.assert_allclose(est.coefficients, [coeff], rtol=1e-10)
        assert est.residual_norm < 1e-10 * np.linalg.norm(y)

    def test_two_sparse_exact_under_low_coherence(self):
        cfg, spec, dicts, design = orthogonal_setup()
        op = build_sensing_matrix(design, dicts)
        assert coherence_report(design, dicts, 4).mutual_coherence < 1.0 / 3.0
        rng = np.random.default_rng(3)
        for _ in range(5):
            support = sorted(int(v) for v in rng.choice(spec.total, 2, replace=False))
            coeffs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            y = coeffs[0] * op.column(support[0]) + coeffs[1] * op.column(support[1])
            est = omp_solve(y, op, max_sparsity=2)
            assert sorted(est.support) == support

    def test_zero_measurement_gives_empty_support(self):
        _, _, dicts, design = orthogonal_setup()
        op = build_sensing_matrix(design, dicts)
        est = omp_solve(np.zeros(op.shape[0], dtype=complex), op, max_sparsity=3)
        assert est.support == ()
        assert est.residual_norm == 0.0

    @pytest.mark.parametrize("bad", [np.inf, 1e200])
    def test_non_finite_measurement_norm_raises(self, bad):
        # inf itself, or entries whose squared sum overflows to inf
        _, _, dicts, design = orthogonal_setup()
        op = build_sensing_matrix(design, dicts)
        y = op.column(5).copy()
        y[:] = bad
        with pytest.raises(FloatingPointError, match="not finite"):
            omp_solve(y, op, max_sparsity=2)

    def test_sparsity_exceeding_observations_rejected(self):
        _, _, dicts, design = orthogonal_setup()
        op = build_sensing_matrix(design, dicts)
        with pytest.raises(ValueError):
            omp_solve(np.zeros(op.shape[0], dtype=complex), op, max_sparsity=op.shape[0] + 1)

    def test_sparsity_exceeding_atoms_rejected(self):
        # Two atoms against four observations: a third pick would repeat an atom.
        dicts = DictionarySet(a_r=np.array([[1.0], [0.0]]), a_t=np.eye(2), b=np.ones((1, 1)))
        design = PilotDesign(blocks=np.eye(2)[None], allocation=(0,), total_power=2.0)
        op = build_sensing_matrix(design, dicts)
        y = np.array([1.0 + 0.5j, 0.5, 0.2 + 0.3j, -0.4])
        assert op.shape == (4, 2)
        with pytest.raises(ValueError, match="atoms"):
            omp_solve(y, op, max_sparsity=3)
        assert len(omp_solve(y, op, max_sparsity=2).support) == 2

    def test_early_stop_keeps_support_small(self):
        _, _, dicts, design = orthogonal_setup()
        op = build_sensing_matrix(design, dicts)
        y = 2.0 * op.column(5)
        est = omp_solve(y, op, max_sparsity=4)
        assert est.support == (5,)  # residual floor reached after one atom

    def test_duplicate_columns_warn_and_stay_monotone(self, caplog):
        # One subcarrier, one tap and two equal AoD columns give two identical
        # atoms: the second pick makes the active set singular.
        dicts = DictionarySet(a_r=np.array([[1.0], [0.0]]), a_t=np.ones((1, 2)), b=np.ones((1, 1)))
        design = PilotDesign(blocks=np.ones((1, 1, 1)), allocation=(0,), total_power=1.0)
        op = build_sensing_matrix(design, dicts)
        y = np.array([1.0, 0.5], dtype=complex)  # component off the column span
        with caplog.at_level(logging.WARNING):
            est = omp_solve(y, op, max_sparsity=2)
        assert "rank-deficient" in caplog.text
        assert len(est.support) == 2
        assert est.residual_norm == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("gap", [1e-10, 1e-17])
    def test_near_duplicate_columns_match_lstsq(self, gap, caplog):
        # Two AoD columns that differ by ``gap`` relative: at 1e-10 the active
        # set is ill-conditioned but of full rank, at 1e-17 it rounds to a
        # duplicate. The refit must agree with lstsq on the same active set,
        # warning exactly when lstsq finds it rank-deficient.
        dicts = DictionarySet(
            a_r=np.array([[1.0], [0.0]]), a_t=np.array([[1.0, 1.0], [0.0, gap]]), b=np.ones((1, 1))
        )
        design = PilotDesign(blocks=np.eye(2)[None], allocation=(0,), total_power=2.0)
        op = build_sensing_matrix(design, dicts)
        y = np.array([1.0 + 0.5j, 0.5, 0.2 + 0.3j, -0.4])
        with caplog.at_level(logging.WARNING):
            est = omp_solve(y, op, max_sparsity=2)
        assert len(est.support) == 2
        basis = np.column_stack([op.column(g) for g in est.support])
        gains, _, rank, _ = np.linalg.lstsq(basis, y, rcond=None)
        assert rank == (2 if gap == 1e-10 else 1)
        assert est.residual_norm == pytest.approx(np.linalg.norm(y - basis @ gains), rel=1e-12)
        warned = [r.getMessage() for r in caplog.records if r.name == "pilotopt.estimator"]
        expected = [] if rank == 2 else [
            "OMP active set is rank-deficient (rank 1 < 2); using the minimum-norm "
            "least-squares solution"
        ]
        assert warned == expected

    def test_noisy_run_completes_with_distinct_atoms(self):
        cfg, spec, dicts, design = orthogonal_setup()
        op = build_sensing_matrix(design, dicts)
        rng = np.random.default_rng(8)
        y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
        est = omp_solve(y, op, max_sparsity=6)
        assert len(set(est.support)) == len(est.support) == 6


def _profile_case(profile):
    """Profile config, dictionaries and a seeded Gaussian design on K/8 subcarriers."""
    cfg = load_experiment_config(profile)
    dicts = build_dictionaries(cfg.grids, cfg.system)
    return cfg, dicts, make_baseline_design(cfg, cfg.system.num_subcarriers // 8, 4)


def _measurement(cfg, design, trial, snr_db):
    """Measurement of a seeded profile channel; noiseless when ``snr_db`` is None."""
    s = cfg.system
    h = assemble_channel(
        sample_channel(s, cfg.channel.num_paths, cfg.channel.rician_k_db, 50 + trial), s
    )
    sigma2 = 0.0 if snr_db is None else snr_sigma2(
        s.total_power, s.num_tx, s.seq_len, len(design.allocation), snr_db
    )
    return synthesize_measurement(h, design, sigma2, (trial, 11))


def _rel(a, b):
    return float(np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b))


class TestGramOmp:
    """Gram-updated OMP against one dense adjoint of the residual per step."""

    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 30.0, None])
    @pytest.mark.parametrize("profile", ["desk", "paper"])
    def test_matches_dense_oracle(self, profile, snr_db):
        cfg, dicts, design = _profile_case(profile)
        op = build_sensing_matrix(design, dicts)
        omega = sensing_omega(design, dicts)
        steps = []
        gram_update = op.residual_correlations

        def recording(alpha0, omega_gram, atoms, gains, out):
            corr = gram_update(alpha0, omega_gram, atoms, gains, out)
            steps.append((list(atoms), gains.copy(), corr * op.column_norms))
            return corr

        op.residual_correlations = recording
        sparsity = cfg.evaluation.max_sparsity
        for trial in range(3):
            y = _measurement(cfg, design, trial, snr_db)
            steps.clear()
            est = omp_solve(y, op, sparsity)
            ref = dense_omp_solve(y, omega, dicts.a_r, sparsity)
            assert est.support == ref.support
            assert len(est.support) == sparsity
            assert _rel(est.coefficients, ref.coefficients) <= 1e-12
            assert est.residual_norm == pytest.approx(ref.residual_norm, rel=1e-12)
            # One Gram update per step after the first, each equal to Psi^H r.
            assert [atoms for atoms, _, _ in steps] == [
                list(est.support[:n]) for n in range(1, sparsity)
            ]
            for atoms, gains, corr in steps:
                basis = np.column_stack([op.column(g) for g in atoms])
                explicit = dense_rmatvec(omega, dicts.a_r, y - basis @ gains)
                assert _rel(corr, explicit) <= 1e-12

    @pytest.mark.parametrize("design_seed", [4, 5])
    def test_paper_measurements_match_dense_oracle(self, design_seed):
        # 8 channels x 3 SNRs, one of them noiseless, per Gaussian Q = 8 design.
        cfg = load_experiment_config("paper")
        dicts = build_dictionaries(cfg.grids, cfg.system)
        design = make_baseline_design(cfg, 8, design_seed)
        op = build_sensing_matrix(design, dicts)
        omega = sensing_omega(design, dicts)
        sparsity = cfg.evaluation.max_sparsity
        for trial in range(8):
            for snr_db in (0.0, 20.0, None):
                y = _measurement(cfg, design, trial, snr_db)
                est = omp_solve(y, op, sparsity)
                ref = dense_omp_solve(y, omega, dicts.a_r, sparsity)
                assert est.support == ref.support
                assert _rel(est.coefficients, ref.coefficients) <= 1e-12
                assert est.residual_norm == pytest.approx(ref.residual_norm, rel=1e-12)

    def test_one_adjoint_per_solve(self, monkeypatch):
        cfg, dicts, design = _profile_case("paper")
        op = build_sensing_matrix(design, dicts)
        calls = []
        adjoint = SensingOperator.rmatvec

        def counting(self, y):
            calls.append(1)
            return adjoint(self, y)

        monkeypatch.setattr(SensingOperator, "rmatvec", counting)
        est = omp_solve(_measurement(cfg, design, 0, 10.0), op, max_sparsity=6)
        assert len(est.support) == 6
        assert len(calls) == 1


class TestReconstructChannel:
    def test_empty_support_gives_zero(self):
        _, _, dicts, _ = orthogonal_setup()
        from pilotopt import SparseEstimate

        est = SparseEstimate(support=(), coefficients=np.zeros(0, dtype=complex),
                             residual_norm=0.0)
        h = reconstruct_channel(est, dicts)
        np.testing.assert_array_equal(h.stacked, 0.0)

    def test_single_atom_is_kronecker_column(self):
        _, spec, dicts, _ = orthogonal_setup()
        from pilotopt import SparseEstimate

        g = 22
        g_tau, g_phi, g_theta = np.unravel_index(g, (spec.g_tau, spec.g_phi, spec.g_theta))
        est = SparseEstimate(support=(g,), coefficients=np.array([1.0 + 0j]),
                             residual_norm=0.0)
        h = reconstruct_channel(est, dicts)
        expected = np.kron(
            dicts.b[:, g_tau], np.kron(dicts.a_t[:, g_phi].conj(), dicts.a_r[:, g_theta])
        )
        np.testing.assert_allclose(h.stacked, expected, atol=1e-13)

    def test_noiseless_end_to_end_recovery(self):
        cfg, spec, dicts, design = orthogonal_setup()
        op = build_sensing_matrix(design, dicts)
        rng = np.random.default_rng(9)
        true_l = 3
        support = rng.choice(spec.total, true_l, replace=False)
        gains = rng.standard_normal(true_l) + 1j * rng.standard_normal(true_l)
        h = on_grid_channel(dicts, spec, support, gains, cfg)
        y = synthesize_measurement(h, design, 0.0, 0)
        est = omp_solve(y, op, max_sparsity=true_l)
        h_hat = reconstruct_channel(est, dicts)
        assert nmse(h.stacked, h_hat.stacked) <= 1e-10

    def test_matches_virtual_channel_on_random_support(self):
        _, spec, dicts, _ = orthogonal_setup()
        from pilotopt import SparseEstimate

        rng = np.random.default_rng(11)
        support = tuple(int(g) for g in rng.choice(spec.total, 5, replace=False))
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        est = SparseEstimate(support=support, coefficients=coeffs, residual_norm=0.0)
        h = reconstruct_channel(est, dicts)
        alpha = np.zeros(spec.total, dtype=complex)
        alpha[list(support)] = coeffs
        np.testing.assert_allclose(
            h.stacked, virtual_channel(dicts, alpha), rtol=1e-12, atol=1e-12
        )
        # per_subcarrier is the column-major inverse vec of each stacked slice
        nr, nt = dicts.num_rx, dicts.num_tx
        for k in range(dicts.num_subcarriers):
            block = h.stacked[k * nr * nt : (k + 1) * nr * nt].reshape(nr, nt, order="F")
            np.testing.assert_array_equal(h.per_subcarrier[k], block)

    def test_invalid_support_rejected(self):
        _, spec, dicts, _ = orthogonal_setup()
        from pilotopt import SparseEstimate

        for g in (spec.total, -1):
            est = SparseEstimate(support=(g,), coefficients=np.array([1.0 + 0j]),
                                 residual_norm=0.0)
            with pytest.raises(ValueError):
                reconstruct_channel(est, dicts)


class TestScalarHelpers:
    def test_nmse_perfect_and_zero_estimates(self):
        h = np.array([1.0 + 1j, 2.0, -3.0j])
        assert nmse(h, h) == 0.0
        assert nmse(h, np.zeros_like(h)) == pytest.approx(1.0)

    def test_nmse_phase_invariance(self):
        rng = np.random.default_rng(10)
        h = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        e = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        rot = np.exp(0.7j)
        assert nmse(rot * h, rot * e) == pytest.approx(nmse(h, e), rel=1e-12)

    def test_nmse_zero_truth_rejected(self):
        with pytest.raises(DegenerateInputError):
            nmse(np.zeros(3, dtype=complex), np.ones(3, dtype=complex))

    def test_nmse_overflow_rejected(self):
        h = np.array([1.0 + 1j, 2.0, -3.0j])
        with pytest.raises(DegenerateInputError, match="overflows"):
            nmse(h, np.full(3, 1e200 + 0j))
        with pytest.raises(DegenerateInputError, match="overflows"):
            nmse(h, np.array([np.inf, 0.0, 0.0]))

    def test_snr_conversion(self):
        assert snr_sigma2(total_power=32.0, num_tx=4, seq_len=4, allocation_size=2,
                          snr_db=0.0) == pytest.approx(1.0)
        assert snr_sigma2(32.0, 4, 4, 2, 10.0) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            snr_sigma2(32.0, 4, 4, 0, 0.0)
