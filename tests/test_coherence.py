from dataclasses import replace

import numpy as np
import pytest

from pilotopt import coherence
from pilotopt import (
    CoherenceEngine,
    DegenerateInputError,
    GridSpec,
    PilotDesign,
    SensingOperator,
    SystemConfig,
    build_dictionaries,
    build_omega,
    build_sensing_matrix,
    coherence_report,
    delay_response,
    gaussian_init,
    load_experiment_config,
    make_baseline_design,
    mutual_coherence,
    welch_bound,
)

from oracles import (
    CapacityError,
    c_omega,
    dense_generalized_coherence,
    dense_mutual_coherence,
    dense_psi,
    f_omega,
    f_psi_reference,
    full_gram_tensor,
    full_gram_value_and_vgrad,
    psi_matvec,
    t_p_dictionary,
)

# AoA dictionary coherence on the full-scale grid (G_theta = 16, Nr = 8,
# p = 4), frozen from a direct double-sum evaluation.
T_P_FULL_GRID = 17.22660128568205


def small_setup(seed=0):
    cfg = SystemConfig(
        bandwidth_hz=1.92e6,
        num_subcarriers=8,
        num_tx=4,
        num_rx=2,
        seq_len=2,
        total_power=64.0,
        num_delay_taps=4,
    )
    spec = GridSpec(g_theta=4, g_phi=8, g_tau=4)
    dicts = build_dictionaries(spec, cfg)
    rng = np.random.default_rng(seed)
    shape = (cfg.num_subcarriers, cfg.num_tx, cfg.seq_len)
    blocks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return cfg, spec, dicts, blocks


def dense_omega_oracle(blocks, dicts):
    """Column-by-column Omega from the defining formula X_blk^T (b kron conj(a_t))."""
    k, _, m = blocks.shape
    g_tau = dicts.b.shape[1]
    g_phi = dicts.a_t.shape[1]
    omega = np.zeros((k * m, g_tau * g_phi), dtype=complex)
    for gt in range(g_tau):
        for gp in range(g_phi):
            col = np.concatenate(
                [dicts.b[kk, gt] * (blocks[kk].T @ dicts.a_t[:, gp].conj()) for kk in range(k)]
            )
            omega[:, gt * g_phi + gp] = col
    return omega


class TestBuildOmega:
    def test_zero_pilots_give_zero(self):
        _, _, dicts, blocks = small_setup()
        np.testing.assert_array_equal(build_omega(np.zeros_like(blocks), dicts), 0.0)

    def test_single_block_zero_delay_column(self):
        _, spec, dicts, blocks = small_setup()
        x = np.zeros_like(blocks)
        x[0] = blocks[0]
        omega = build_omega(x, dicts)
        m = blocks.shape[2]
        col = omega[:, 0 * spec.g_phi + 3]  # tau grid 0 (all-ones b), AoD grid 3
        expected_head = x[0].T @ dicts.a_t[:, 3].conj()
        np.testing.assert_allclose(col[:m], expected_head, atol=1e-13)
        np.testing.assert_array_equal(col[m:], 0.0)

    def test_matches_column_oracle(self):
        _, _, dicts, blocks = small_setup(3)
        np.testing.assert_allclose(
            build_omega(blocks, dicts), dense_omega_oracle(blocks, dicts), atol=1e-12
        )

    def test_dimension_mismatch_rejected(self):
        _, _, dicts, blocks = small_setup()
        with pytest.raises(ValueError):
            build_omega(blocks[:, :2, :], dicts)


class TestComegaAgainstGram:
    def test_diagonal_is_column_power(self):
        _, spec, dicts, blocks = small_setup(1)
        omega = build_omega(blocks, dicts)
        val = c_omega(blocks, dicts, 2, 2, 5, 5)
        assert abs(val.imag) < 1e-10
        assert val.real == pytest.approx(
            np.linalg.norm(omega[:, 2 * spec.g_phi + 5]) ** 2, rel=1e-12
        )

    def test_zero_pilots(self):
        _, _, dicts, blocks = small_setup()
        assert c_omega(np.zeros_like(blocks), dicts, 0, 1, 2, 3) == 0.0

    def test_random_tuples_match_dense_gram(self):
        _, spec, dicts, blocks = small_setup(2)
        omega = build_omega(blocks, dicts)
        gram = omega.conj().T @ omega
        scale = np.abs(gram).max()
        rng = np.random.default_rng(5)
        for _ in range(50):
            gt, gt2 = rng.integers(0, spec.g_tau, 2)
            gp, gp2 = rng.integers(0, spec.g_phi, 2)
            fast = c_omega(blocks, dicts, gt, gt2, gp, gp2)
            ref = gram[gt * spec.g_phi + gp, gt2 * spec.g_phi + gp2]
            assert abs(fast - ref) <= 1e-10 * scale

    def test_index_out_of_range(self):
        _, _, dicts, blocks = small_setup()
        with pytest.raises(ValueError):
            c_omega(blocks, dicts, 4, 0, 0, 0)


class TestFOmega:
    def test_zero_pilots(self):
        _, _, dicts, blocks = small_setup()
        assert f_omega(np.zeros_like(blocks), dicts, 4) == 0.0

    def test_brute_force_gram_oracle(self):
        for seed in range(3):
            _, _, dicts, blocks = small_setup(seed)
            omega = build_omega(blocks, dicts)
            gram = omega.conj().T @ omega
            for p in (2, 4, 6):
                ref = float(np.sum(np.abs(gram) ** p) ** (1.0 / p))
                assert f_omega(blocks, dicts, p) == pytest.approx(ref, rel=1e-12)

    def test_degree_two_homogeneity(self):
        _, _, dicts, blocks = small_setup(4)
        base = f_omega(blocks, dicts, 4)
        for s in (0.5, 2.0, 3.0):
            assert f_omega(s * blocks, dicts, 4) == pytest.approx(s**2 * base, rel=1e-10)

    def test_odd_p_rejected(self):
        _, _, dicts, blocks = small_setup()
        with pytest.raises(ValueError):
            f_omega(blocks, dicts, 3)
        with pytest.raises(ValueError):
            f_omega(blocks, dicts, 0)


def _profile_blocks(profile, seed):
    cfg = load_experiment_config(profile)
    dicts = build_dictionaries(cfg.grids, cfg.system)
    s = cfg.system
    return dicts, gaussian_init(s.num_subcarriers, s.num_tx, s.seq_len, seed)


class TestCoherenceEngine:
    """The delay-difference engine against the full-tensor oracle."""

    @staticmethod
    def assert_matches_oracle(blocks, dicts, ps=(2, 4, 6)):
        engine = CoherenceEngine(dicts)
        for p in ps:
            f, v_p, vgrad = engine.f_value_and_vgrad(blocks, p)
            f_ref, v_ref, vgrad_ref = full_gram_value_and_vgrad(blocks, dicts, p)
            assert f == pytest.approx(f_ref, rel=1e-12)
            assert v_p == pytest.approx(v_ref, rel=1e-12)
            assert np.linalg.norm(vgrad - vgrad_ref) <= 1e-12 * np.linalg.norm(vgrad_ref)

    def test_small_setup_matches_oracle(self):
        for seed in range(3):
            _, _, dicts, blocks = small_setup(seed)
            self.assert_matches_oracle(blocks, dicts)
            blocks[[1, 4, 5]] = 0.0
            self.assert_matches_oracle(blocks, dicts)

    def test_desk_matches_oracle(self):
        dicts, blocks = _profile_blocks("desk", 7)
        self.assert_matches_oracle(blocks, dicts)
        blocks[::3] = 0.0
        self.assert_matches_oracle(blocks, dicts)

    def test_paper_size_matches_oracle(self):
        dicts, blocks = _profile_blocks("paper", 8)
        blocks[1::4] = 0.0
        self.assert_matches_oracle(blocks, dicts, ps=(4,))

    def test_rows_are_delay_differences(self):
        _, spec, dicts, blocks = small_setup(9)
        rows = CoherenceEngine(dicts).gram_tensor(blocks)
        _, full = full_gram_tensor(blocks, dicts)
        g_tau, g_phi = spec.g_tau, spec.g_phi
        assert rows.shape == (g_tau, g_phi * g_phi)
        scale = np.abs(full).max()
        for a in range(g_tau):
            for b in range(g_tau):
                if a >= b:
                    expected = rows[a - b]
                else:
                    expected = rows[b - a].reshape(g_phi, g_phi).conj().T.ravel()
                np.testing.assert_allclose(full[a * g_tau + b], expected, rtol=0, atol=1e-13 * scale)

    def test_non_uniform_delay_grid_rejected(self):
        cfg, _, dicts, _ = small_setup()
        tau = cfg.max_delay_s * np.array([0.0, 0.1, 0.5, 1.0])
        b = np.stack([delay_response(t, cfg) for t in tau], axis=1)
        with pytest.raises(ValueError, match="uniform"):
            CoherenceEngine(replace(dicts, tau_grid=tau, b=b))

    def test_wide_band_uniform_grid_accepted(self):
        # 4096 taps put delay phases near 4096 * pi, where the Toeplitz
        # residual of the uniform grid is about 3e-12.
        cfg = replace(small_setup()[0], num_subcarriers=4096, num_delay_taps=4096)
        CoherenceEngine(build_dictionaries(GridSpec(g_theta=2, g_phi=2, g_tau=4), cfg))


class TestFPsiDecomposition:
    def test_zero_pilots(self):
        _, _, dicts, blocks = small_setup()
        assert f_psi_reference(np.zeros_like(blocks), dicts, 4) == 0.0

    def test_equals_tp_times_f_omega(self):
        for seed in range(3):
            _, _, dicts, blocks = small_setup(seed)
            lhs = f_psi_reference(blocks, dicts, 4)
            rhs = t_p_dictionary(dicts.a_r, 4) * f_omega(blocks, dicts, 4)
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_single_aoa_column_gives_nr_factor(self):
        cfg, _, _, blocks = small_setup(6)
        dicts1 = build_dictionaries(GridSpec(g_theta=1, g_phi=8, g_tau=4), cfg)
        # t_p of one unit-modulus column is ||a||^2 = Nr
        assert t_p_dictionary(dicts1.a_r, 4) == pytest.approx(cfg.num_rx, rel=1e-12)
        assert f_psi_reference(blocks, dicts1, 4) == pytest.approx(
            cfg.num_rx * f_omega(blocks, dicts1, 4), rel=1e-8
        )

    def test_capacity_cap(self):
        _, _, dicts, blocks = small_setup()
        with pytest.raises(CapacityError):
            f_psi_reference(blocks, dicts, 4, entry_cap=16)


class TestTPDictionary:
    def test_single_column(self):
        a = np.ones((4, 1), dtype=complex)
        assert t_p_dictionary(a, 4) == pytest.approx(4.0)

    def test_orthogonal_columns_keep_diagonal_only(self):
        # DFT-like grid with G = Nr has orthogonal steering columns
        cfg = SystemConfig(
            bandwidth_hz=1.92e6,
            num_subcarriers=8,
            num_tx=4,
            num_rx=4,
            seq_len=2,
            total_power=1.0,
            num_delay_taps=4,
        )
        d = build_dictionaries(GridSpec(g_theta=4, g_phi=4, g_tau=2), cfg)
        expected = (4 * 4.0**4) ** 0.25
        assert t_p_dictionary(d.a_r, 4) == pytest.approx(expected, rel=1e-12)

    def test_full_grid_regression_value(self):
        cfg = load_experiment_config("paper")
        d = build_dictionaries(cfg.grids, cfg.system)
        assert t_p_dictionary(d.a_r, 4) == pytest.approx(T_P_FULL_GRID, rel=1e-12)

    def test_lower_bound(self):
        _, _, dicts, _ = small_setup()
        g_theta = dicts.a_r.shape[1]
        nr = dicts.a_r.shape[0]
        assert t_p_dictionary(dicts.a_r, 4) >= nr * g_theta**0.25 - 1e-12


def _single_aoa_operator(matrix):
    """Sensing operator whose Psi is ``matrix``: Omega = matrix, A_r = [[1]]."""
    return SensingOperator(omega=np.asarray(matrix, dtype=complex), a_r=np.ones((1, 1)))


class TestScalarCoherenceMetrics:
    def test_identity_has_zero_coherence(self):
        # Psi = I_5 kron I_2 = I_10
        assert mutual_coherence(SensingOperator(omega=np.eye(5), a_r=np.eye(2))) == 0.0
        assert dense_mutual_coherence(np.eye(5)) == 0.0
        assert dense_generalized_coherence(np.eye(5), 4) == 0.0

    def test_hand_computed_pair(self):
        m = np.array([[1.0, 1 / np.sqrt(2)], [0.0, 1 / np.sqrt(2)]])
        assert dense_mutual_coherence(m) == pytest.approx(1 / np.sqrt(2), rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
        base = mutual_coherence(_single_aoa_operator(m))
        assert base > 0.0
        # power-of-two scales are exact in binary floating point
        for s in (0.5, 2.0, 4.0, 0.25):
            assert mutual_coherence(_single_aoa_operator(s * m)) == base
        # arbitrary scales cancel analytically, up to last-ulp rounding
        assert mutual_coherence(_single_aoa_operator(3.0 * m)) == pytest.approx(base, rel=1e-15)

    def test_zero_column_named_in_error(self):
        m = np.ones((3, 4), dtype=complex)
        m[:, 2] = 0.0
        with pytest.raises(DegenerateInputError, match="column 2 of the pilot factor"):
            mutual_coherence(_single_aoa_operator(m))
        a_r = np.ones((2, 3), dtype=complex)
        a_r[:, 1] = 0.0
        with pytest.raises(DegenerateInputError, match="column 1 of the AoA dictionary"):
            mutual_coherence(SensingOperator(omega=np.eye(3), a_r=a_r))

    def test_generalized_decreases_towards_mutual(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((8, 20)) + 1j * rng.standard_normal((8, 20))
        mu = dense_mutual_coherence(m)
        nus = [dense_generalized_coherence(m, p) for p in (2, 4, 8, 16)]
        assert all(a >= b - 1e-12 for a, b in zip(nus, nus[1:]))
        assert all(nu >= mu - 1e-12 for nu in nus)

    def test_welch_bound_values(self):
        assert welch_bound(5, 5) == 0.0
        assert welch_bound(3, 2) == 0.0
        assert welch_bound(2, 4) == pytest.approx(np.sqrt(2 / 6))
        with pytest.raises(ValueError):
            welch_bound(4, 1)

    def test_welch_bound_below_mutual_coherence(self):
        rng = np.random.default_rng(10)
        m = rng.standard_normal((6, 24)) + 1j * rng.standard_normal((6, 24))
        op = _single_aoa_operator(m)
        assert op.shape == (6, 24)
        assert welch_bound(6, 24) <= mutual_coherence(op)


class TestSensingOperator:
    def test_structured_equals_dense(self):
        _, spec, dicts, blocks = small_setup(11)
        design = PilotDesign(
            blocks=blocks, allocation=tuple(range(8)), total_power=float(np.sum(np.abs(blocks) ** 2))
        )
        op = build_sensing_matrix(design, dicts)
        psi = dense_psi(op)
        rng = np.random.default_rng(12)
        x = rng.standard_normal(spec.total) + 1j * rng.standard_normal(spec.total)
        y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
        np.testing.assert_allclose(psi_matvec(op, x), psi @ x, rtol=1e-12, atol=1e-10)
        np.testing.assert_allclose(op.rmatvec(y), psi.conj().T @ y, rtol=1e-12, atol=1e-10)
        np.testing.assert_allclose(op.column_norms(), np.linalg.norm(psi, axis=0), rtol=1e-10)
        for g in rng.integers(0, spec.total, 5):
            np.testing.assert_allclose(op.column(int(g)), psi[:, int(g)], atol=1e-13)

    def test_matvec_extracts_columns(self):
        _, spec, dicts, blocks = small_setup(13)
        design = PilotDesign(blocks=blocks, allocation=tuple(range(8)), total_power=1.0)
        op = build_sensing_matrix(design, dicts)
        e = np.zeros(spec.total, dtype=complex)
        e[37] = 1.0
        np.testing.assert_allclose(psi_matvec(op, e), op.column(37), atol=1e-13)

    def test_restriction_drops_rows(self):
        cfg, spec, dicts, blocks = small_setup(14)
        allocation = (1, 4, 6)
        masked = np.zeros_like(blocks)
        for k in allocation:
            masked[k] = blocks[k]
        design = PilotDesign(blocks=masked, allocation=allocation, total_power=1.0)
        op = build_sensing_matrix(design, dicts)
        assert op.shape == (cfg.num_rx * cfg.seq_len * 3, spec.total)
        everywhere = PilotDesign(blocks=masked, allocation=tuple(range(8)), total_power=1.0)
        full = build_sensing_matrix(everywhere, dicts)
        assert full.shape[0] == cfg.num_rx * cfg.seq_len * 8
        # unallocated rows of the unrestricted operator are zero
        dense_full = dense_psi(full)
        dense_sub = dense_psi(op)
        m, nr = cfg.seq_len, cfg.num_rx
        rows = np.concatenate([np.arange(k * m * nr, (k + 1) * m * nr) for k in allocation])
        np.testing.assert_allclose(dense_full[rows], dense_sub, atol=1e-13)
        others = np.setdiff1d(np.arange(dense_full.shape[0]), rows)
        np.testing.assert_array_equal(dense_full[others], 0.0)

    def test_empty_allocation_rejected(self):
        _, _, dicts, blocks = small_setup()
        with pytest.raises(ValueError):
            design = PilotDesign(blocks=np.zeros_like(blocks), allocation=(), total_power=1.0)
            build_sensing_matrix(design, dicts)

    def test_gram_factorization_entrywise(self):
        # psi_g^H psi_g' = c_omega * (a_r^H a_r'), checked on the dense matrix
        _, spec, dicts, blocks = small_setup(15)
        design = PilotDesign(blocks=blocks, allocation=tuple(range(8)), total_power=1.0)
        psi = dense_psi(build_sensing_matrix(design, dicts))
        rng = np.random.default_rng(16)
        for _ in range(20):
            g1, g2 = rng.integers(0, spec.total, 2)
            gt1, gp1, gth1 = np.unravel_index(g1, (spec.g_tau, spec.g_phi, spec.g_theta))
            gt2, gp2, gth2 = np.unravel_index(g2, (spec.g_tau, spec.g_phi, spec.g_theta))
            lhs = np.vdot(psi[:, g1], psi[:, g2])
            rhs = c_omega(blocks, dicts, gt1, gt2, gp1, gp2) * np.vdot(
                dicts.a_r[:, gth1], dicts.a_r[:, gth2]
            )
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_column_norm_factorization(self):
        _, spec, dicts, blocks = small_setup(17)
        design = PilotDesign(blocks=blocks, allocation=tuple(range(8)), total_power=1.0)
        op = build_sensing_matrix(design, dicts)
        omega_norms = np.linalg.norm(op.omega, axis=0)
        nr = dicts.num_rx
        for g in (0, 7, 100, spec.total - 1):
            j = g // spec.g_theta
            assert op.column_norms()[g] == pytest.approx(
                np.sqrt(nr) * omega_norms[j], rel=1e-10
            )

    def test_dense_capacity_error(self):
        _, _, dicts, blocks = small_setup()
        design = PilotDesign(blocks=blocks, allocation=tuple(range(8)), total_power=1.0)
        op = build_sensing_matrix(design, dicts)
        with pytest.raises(CapacityError):
            dense_psi(op, entry_cap=100)

    def test_operator_mutual_coherence_matches_dense(self):
        _, _, dicts, blocks = small_setup(18)
        design = PilotDesign(blocks=blocks, allocation=tuple(range(8)), total_power=1.0)
        op = build_sensing_matrix(design, dicts)
        dense = dense_mutual_coherence(dense_psi(op))
        assert mutual_coherence(op) == pytest.approx(dense, abs=1e-12)


class TestCoherenceReport:
    def test_orthogonal_design_has_zero_inner_products(self):
        # identity-like pilot blocks on orthogonal grids make Omega orthogonal
        cfg = SystemConfig(
            bandwidth_hz=1.92e6,
            num_subcarriers=8,
            num_tx=4,
            num_rx=2,
            seq_len=4,
            total_power=32.0,
            num_delay_taps=4,
        )
        dicts = build_dictionaries(GridSpec(g_theta=2, g_phi=4, g_tau=4), cfg)
        scale = np.sqrt(cfg.total_power / (8 * 4))
        blocks = np.broadcast_to(scale * np.eye(4), (8, 4, 4)).copy()
        design = PilotDesign(blocks=blocks, allocation=tuple(range(8)), total_power=cfg.total_power)
        report = coherence_report(design, dicts, 4)
        assert report.inner_product_cdf.max() < 1e-12
        np.testing.assert_allclose(
            report.column_norm_cdf, report.column_norm_cdf[0], rtol=1e-12
        )

    def test_report_fields_and_welch_inequality(self):
        cfg = load_experiment_config("desk")
        dicts = build_dictionaries(cfg.grids, cfg.system)
        design = make_baseline_design(cfg, 6, 0)
        report = coherence_report(design, dicts, 4)
        assert report.n_obs == cfg.system.num_rx * cfg.system.seq_len * 6
        assert report.n_atoms == cfg.grids.total
        assert report.welch <= report.mutual_coherence <= 1.0
        assert np.all(np.diff(report.inner_product_cdf) >= 0)
        assert np.all(np.diff(report.column_norm_cdf) >= 0)
        expected_pairs = report.column_norm_cdf.size * (report.column_norm_cdf.size - 1) // 2
        assert report.inner_product_cdf.size == expected_pairs
        summary = report.summary_dict()
        assert set(summary) == {"mutual", "generalized_p", "p", "welch_bound", "N", "G"}

    def test_generalized_matches_dense_psi(self):
        _, _, dicts, blocks = small_setup(19)
        for allocation in (tuple(range(8)), (0, 3, 5)):
            masked = np.zeros_like(blocks)
            masked[list(allocation)] = blocks[list(allocation)]
            design = PilotDesign(blocks=masked, allocation=allocation, total_power=1.0)
            op = build_sensing_matrix(design, dicts)
            psi = dense_psi(op)
            for p in (2, 4, 6):
                report = coherence_report(design, dicts, p)
                assert report.generalized == pytest.approx(
                    dense_generalized_coherence(psi, p), rel=1e-9
                )
                assert report.mutual_coherence == pytest.approx(
                    dense_mutual_coherence(psi), abs=1e-12
                )
                assert report.mutual_coherence == mutual_coherence(op)

    def test_cdf_holds_every_off_diagonal_omega_pair(self):
        _, _, dicts, blocks = small_setup(20)
        design = PilotDesign(blocks=blocks, allocation=tuple(range(8)), total_power=1.0)
        report = coherence_report(design, dicts, 4)
        omega = build_omega(blocks, dicts)
        norms = np.linalg.norm(omega, axis=0)
        normalized = np.abs(omega.conj().T @ omega) / np.outer(norms, norms)
        expected = np.sort(normalized[np.triu_indices(omega.shape[1], k=1)])
        np.testing.assert_allclose(report.inner_product_cdf, expected, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(report.column_norm_cdf, np.sort(norms), rtol=1e-12)

    def test_blockwise_scan_and_sampled_cdf(self, monkeypatch):
        # A small block cap splits every Gram scan into row blocks and sends
        # the CDF down the seeded-subsample path.
        _, _, dicts, blocks = small_setup(21)
        design = PilotDesign(blocks=blocks, allocation=(1, 2, 6), total_power=1.0)
        whole = coherence_report(design, dicts, 4)
        monkeypatch.setattr(coherence, "DENSE_ENTRY_CAP", 100)
        monkeypatch.setattr(coherence, "PAIR_SUBSAMPLE_SIZE", 500)
        split = coherence_report(design, dicts, 4)
        assert split.mutual_coherence == pytest.approx(whole.mutual_coherence, rel=1e-12)
        assert split.generalized == pytest.approx(whole.generalized, rel=1e-12)
        assert split.inner_product_cdf.size == 500
        assert np.all(np.diff(split.inner_product_cdf) >= 0)
        assert split.inner_product_cdf.max() <= whole.inner_product_cdf.max() * (1 + 1e-12)
        assert split.inner_product_cdf.min() >= whole.inner_product_cdf.min() * (1 - 1e-12)
        again = coherence_report(design, dicts, 4)
        np.testing.assert_array_equal(again.inner_product_cdf, split.inner_product_cdf)
