import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pilotopt import coherence, harness
from pilotopt import (
    CoherenceEngine,
    DegenerateInputError,
    DictionarySet,
    GridSpec,
    OptimizerConfig,
    PilotDesign,
    SystemConfig,
    build_dictionaries,
    build_sensing_matrix,
    coherence_report,
    delay_response,
    gaussian_init,
    load_experiment_config,
    loss_and_gradient,
    make_baseline_design,
    optimize,
    welch_bound,
)

from oracles import (
    CapacityError,
    build_omega,
    c_omega,
    dense_generalized_coherence,
    dense_mutual_coherence,
    dense_psi,
    dense_rmatvec,
    expand_runs,
    expanded_cdfs,
    f_omega,
    f_psi_reference,
    full_gram_tensor,
    full_gram_value_and_vgrad,
    normalized_omega_gram,
    one_product_gram_rows,
    psi_matvec,
    sensing_omega,
    t_p_dictionary,
)
from test_command_contract import _zero_column_design

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

    def test_large_p_rescaled_sums_match_oracle(self):
        # The largest |c|^2 of these blocks is about 2^18, so at p = 80 the top
        # |c|^p is about 2^727: past the engine's 2^512 rescaling threshold, yet
        # inside the float range, where the oracle's unscaled sums stay finite.
        dicts, blocks = _profile_blocks("desk", 7)
        p = 80
        f, v_p, vgrad = CoherenceEngine(dicts).f_value_and_vgrad(blocks, p)
        f_ref, v_ref, vgrad_ref = full_gram_value_and_vgrad(blocks, dicts, p)
        assert np.isfinite(v_ref) and v_p < v_ref * 2.0**-512  # the rescaled path ran
        assert f == pytest.approx(f_ref, rel=1e-12)
        ratio, ratio_ref = vgrad / v_p, vgrad_ref / v_ref
        assert np.linalg.norm(ratio - ratio_ref) <= 1e-12 * np.linalg.norm(ratio_ref)
        cfg = OptimizerConfig(p=p, lambda_bar=0.0)
        total_sq = float(np.vdot(blocks, blocks).real)
        assert loss_and_gradient(blocks, dicts, cfg)[0] == pytest.approx(f_ref / total_sq, rel=1e-12)

    def test_paper_call_allocates_only_the_gradient(self):
        # Stands in for a timing gate: the work buffers are made by the first
        # call, so the next one may allocate little beyond the returned gradient.
        dicts, blocks = _profile_blocks("paper", 4)
        engine = CoherenceEngine(dicts)
        engine.f_value_and_vgrad(blocks, 4)
        tracemalloc.start()
        try:
            _, _, vgrad = engine.f_value_and_vgrad(blocks, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * vgrad.nbytes

    def test_paper_first_call_peak_memory(self):
        # The first call makes the work arena: 5 MiB on paper, since |c|^2 and
        # |c|^(p-2) share the memory of the dead K-side and AoD products;
        # unshared, its views would take 7 MiB.
        dicts, blocks = _profile_blocks("paper", 4)
        engine = CoherenceEngine(dicts)
        tracemalloc.start()
        try:
            _, _, vgrad = engine.f_value_and_vgrad(blocks, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20 + 2 * vgrad.nbytes

    def test_results_are_not_work_buffers(self):
        dicts, blocks = _profile_blocks("desk", 5)
        other = gaussian_init(*blocks.shape, 6)
        engine = CoherenceEngine(dicts)
        rows = engine.gram_tensor(blocks)
        f, v_p, vgrad = engine.f_value_and_vgrad(blocks, 4)
        kept = rows.copy(), vgrad.copy()
        latest = engine.f_value_and_vgrad(other, 4)[2]
        engine.gram_tensor(other)
        views = [view for view in vars(engine._work).values() if isinstance(view, np.ndarray)]
        assert len(views) == 8
        assert not any(np.shares_memory(g, view) for g in (vgrad, latest) for view in views)
        engine.f_value_and_vgrad(other[:, :, :2], 4)  # another shape: new buffers
        np.testing.assert_array_equal(rows, kept[0])
        np.testing.assert_array_equal(vgrad, kept[1])
        # Repeated calls, and a second engine, give bitwise-equal results.
        for result in (engine.f_value_and_vgrad(blocks, 4),
                       CoherenceEngine(dicts).f_value_and_vgrad(blocks, 4)):
            assert result[:2] == (f, v_p)
            np.testing.assert_array_equal(result[2], vgrad)
        np.testing.assert_array_equal(engine.gram_tensor(blocks), rows)
        np.testing.assert_array_equal(CoherenceEngine(dicts).gram_tensor(blocks), rows)

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
        cfg, _, dicts, blocks = small_setup()
        tau = cfg.max_delay_s * np.array([0.0, 0.1, 0.5, 1.0])
        b = np.stack([delay_response(t, cfg) for t in tau], axis=1)
        bad = replace(dicts, b=b)
        design = PilotDesign(blocks=blocks, allocation=tuple(range(8)), total_power=1.0)
        for consumer in (
            CoherenceEngine,
            lambda d: build_sensing_matrix(design, d),
            lambda d: coherence_report(design, d, 4),
        ):
            with pytest.raises(ValueError, match="uniform"):
                consumer(bad)

    def test_wide_band_uniform_grid_accepted(self):
        # 4096 taps put delay phases near 4096 * pi, where the Toeplitz
        # residual of the uniform grid is about 3e-12.
        cfg = replace(small_setup()[0], num_subcarriers=4096, num_delay_taps=4096)
        CoherenceEngine(build_dictionaries(GridSpec(g_theta=2, g_phi=2, g_tau=4), cfg))

    def test_wide_band_report_on_small_allocation(self):
        # The report's Toeplitz check must keep the tolerance of all 4096
        # subcarriers, whose delay phases stay as large on three of them.
        cfg = replace(small_setup()[0], num_subcarriers=4096, num_delay_taps=4096)
        dicts = build_dictionaries(GridSpec(g_theta=2, g_phi=2, g_tau=4), cfg)
        alloc = (5, 700, 4000)
        blocks = np.zeros((cfg.num_subcarriers, cfg.num_tx, cfg.seq_len), dtype=complex)
        blocks[list(alloc)] = np.random.default_rng(3).standard_normal((3, cfg.num_tx, cfg.seq_len))
        design = PilotDesign(blocks=blocks, allocation=alloc, total_power=1.0)
        mu = max(normalized_omega_gram(design, dicts).max(), dense_mutual_coherence(dicts.a_r))
        report = coherence_report(design, dicts, 4)
        assert report.mutual_coherence == pytest.approx(mu, rel=1e-12)


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


def _single_aoa_design(seed):
    """A small random design and dictionaries with A_r = [[1]], so mu(Psi) is mu(Omega)."""
    _, _, dicts, blocks = small_setup(seed)
    design = PilotDesign(blocks=blocks, allocation=(0, 2, 5), total_power=1.0)
    return design, replace(dicts, a_r=np.ones((1, 1)))


def _orthonormal_design():
    """Two subcarriers with orthogonal delay columns and identity pilots and
    steering: Omega has orthogonal columns, so Psi's normalized Gram is I_8."""
    dicts = DictionarySet(a_r=np.eye(2), a_t=np.eye(2), b=np.array([[1.0, 1.0], [1.0, -1.0]]))
    return PilotDesign(blocks=np.stack([np.eye(2)] * 2), allocation=(0, 1), total_power=4.0), dicts


class TestScalarCoherenceMetrics:
    def test_identity_has_zero_coherence(self):
        design, dicts = _orthonormal_design()
        assert coherence_report(design, dicts, 4).mutual_coherence == 0.0
        assert dense_mutual_coherence(np.eye(5)) == 0.0
        assert dense_generalized_coherence(np.eye(5), 4) == 0.0

    def test_hand_computed_pair(self):
        m = np.array([[1.0, 1 / np.sqrt(2)], [0.0, 1 / np.sqrt(2)]])
        assert dense_mutual_coherence(m) == pytest.approx(1 / np.sqrt(2), rel=1e-12)

    def test_scale_invariance(self):
        design, dicts = _single_aoa_design(8)

        def scaled_mu(s):
            scaled = replace(design, blocks=s * design.blocks)
            return coherence_report(scaled, dicts, 4).mutual_coherence

        base = scaled_mu(1.0)
        assert base > 0.0
        # power-of-two scales are exact in binary floating point
        for s in (0.5, 2.0, 4.0, 0.25):
            assert scaled_mu(s) == base
        # arbitrary scales cancel analytically, up to last-ulp rounding
        assert scaled_mu(3.0) == pytest.approx(base, rel=1e-15)

    def test_zero_column_named_in_error(self):
        cfg = load_experiment_config("desk")
        dicts = build_dictionaries(cfg.grids, cfg.system)
        broadside = cfg.grids.g_phi // 2  # the AoD column whose steering weights are all equal
        with pytest.raises(DegenerateInputError, match=f"column {broadside} of the pilot factor"):
            coherence_report(_zero_column_design(cfg), dicts, 4)
        a_r = dicts.a_r.copy()
        a_r[:, 1] = 0.0
        with pytest.raises(DegenerateInputError, match="column 1 of the AoA dictionary"):
            coherence_report(make_baseline_design(cfg, 4, 0), replace(dicts, a_r=a_r), 4)

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
        assert welch_bound(6, 24) <= dense_mutual_coherence(m)
        design, dicts = _single_aoa_design(10)
        report = coherence_report(design, dicts, 4)
        assert (report.n_obs, report.n_atoms) == (6, 32)
        assert welch_bound(6, 32) <= report.mutual_coherence


class TestSensingOperator:
    @pytest.mark.parametrize("profile, sizes", [("desk", (1, 4, 5, 16)), ("paper", (1, 8, 9, 33, 64))])
    def test_gram_rows_match_one_product_bitwise(self, profile, sizes):
        cfg = load_experiment_config(profile)
        dicts = build_dictionaries(cfg.grids, cfg.system)
        for q in sizes:
            design = make_baseline_design(cfg, q, 0)
            sel = np.isin(np.arange(dicts.num_subcarriers), design.allocation)
            r = np.matmul(dicts.a_t.conj().T[None, :, :], design.blocks[sel])
            expected = one_product_gram_rows(r, dicts.delay_weights.T[:, sel])
            assert build_sensing_matrix(design, dicts).gram_rows.tobytes() == expected.tobytes()

    def test_full_allocation_paper_build_peak_memory(self):
        # The (Q, G_phi, G_phi) column products of a Q = 64 paper design alone
        # are 4 MiB; the rows they sum to are 2 MiB.
        cfg = load_experiment_config("paper")
        dicts = build_dictionaries(cfg.grids, cfg.system)
        design = make_baseline_design(cfg, cfg.system.num_subcarriers, 0)
        dicts.delay_weights  # cached once per dictionary set
        tracemalloc.start()
        try:
            build_sensing_matrix(design, dicts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20

    def test_only_builder_outside_the_design_loop(self, monkeypatch):
        # The sensing build and the report share one builder and never
        # construct the design loop's engine; the uniform-grid check runs
        # once per dictionary set.
        cfg = load_experiment_config("desk")
        dicts = build_dictionaries(cfg.grids, cfg.system)
        design = make_baseline_design(cfg, 4, 0)

        def refuse(self, dicts):
            raise AssertionError("CoherenceEngine built outside the design loop")

        monkeypatch.setattr(CoherenceEngine, "__init__", refuse)
        op = build_sensing_matrix(design, dicts)
        report = coherence_report(design, dicts, 4)
        assert (report.n_obs, report.n_atoms) == op.shape
        weights = dicts.delay_weights
        assert dicts.delay_weights is weights
        assert not weights.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            weights[0, 0] = 0.0

    def test_structured_equals_dense(self):
        _, spec, dicts, blocks = small_setup(11)
        design = PilotDesign(
            blocks=blocks, allocation=tuple(range(8)), total_power=float(np.sum(np.abs(blocks) ** 2))
        )
        op = build_sensing_matrix(design, dicts)
        psi = dense_psi(design, dicts)
        rng = np.random.default_rng(12)
        x = rng.standard_normal(spec.total) + 1j * rng.standard_normal(spec.total)
        y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
        np.testing.assert_allclose(psi_matvec(design, dicts, x), psi @ x, rtol=1e-12, atol=1e-10)
        np.testing.assert_allclose(op.rmatvec(y), psi.conj().T @ y, rtol=1e-12, atol=1e-10)
        np.testing.assert_allclose(op.column_norms, np.linalg.norm(psi, axis=0), rtol=1e-10)
        for g in rng.integers(0, spec.total, 5):
            np.testing.assert_allclose(op.column(int(g)), psi[:, int(g)], atol=1e-13)

    def test_matvec_extracts_columns(self):
        _, spec, dicts, blocks = small_setup(13)
        design = PilotDesign(blocks=blocks, allocation=tuple(range(8)), total_power=1.0)
        op = build_sensing_matrix(design, dicts)
        e = np.zeros(spec.total, dtype=complex)
        e[37] = 1.0
        np.testing.assert_allclose(psi_matvec(design, dicts, e), op.column(37), atol=1e-13)

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
        dense_full = dense_psi(everywhere, dicts)
        dense_sub = dense_psi(design, dicts)
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
        psi = dense_psi(design, dicts)
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
        omega_norms = np.linalg.norm(sensing_omega(design, dicts), axis=0)
        nr = dicts.num_rx
        for g in (0, 7, 100, spec.total - 1):
            j = g // spec.g_theta
            assert op.column_norms[g] == pytest.approx(
                np.sqrt(nr) * omega_norms[j], rel=1e-10
            )

    def test_dense_capacity_error(self):
        _, _, dicts, blocks = small_setup()
        design = PilotDesign(blocks=blocks, allocation=tuple(range(8)), total_power=1.0)
        with pytest.raises(CapacityError):
            dense_psi(design, dicts, entry_cap=100)

    def test_operator_mutual_coherence_matches_dense(self):
        _, _, dicts, blocks = small_setup(18)
        design = PilotDesign(blocks=blocks, allocation=tuple(range(8)), total_power=1.0)
        dense = dense_mutual_coherence(dense_psi(design, dicts))
        assert coherence_report(design, dicts, 4).mutual_coherence == pytest.approx(dense, abs=1e-12)


class TestFactoredOperator:
    """The operator's factored products against the dense Omega of the oracles."""

    @pytest.mark.parametrize("every_subcarrier", [True, False])
    @pytest.mark.parametrize("profile", ["desk", "paper"])
    def test_products_match_dense_omega(self, profile, every_subcarrier):
        cfg = load_experiment_config(profile)
        dicts = build_dictionaries(cfg.grids, cfg.system)
        k = cfg.system.num_subcarriers
        design = make_baseline_design(cfg, k if every_subcarrier else k // 8, 5)
        op = build_sensing_matrix(design, dicts)
        omega = sensing_omega(design, dicts)
        assert op.shape == (omega.shape[0] * dicts.num_rx, cfg.grids.total)
        rng = np.random.default_rng(6)
        y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
        expected = dense_rmatvec(omega, dicts.a_r, y)
        assert np.linalg.norm(op.rmatvec(y) - expected) <= 1e-12 * np.linalg.norm(expected)
        norms = np.kron(np.linalg.norm(omega, axis=0), np.linalg.norm(dicts.a_r, axis=0))
        np.testing.assert_allclose(op.column_norms, norms, rtol=1e-12)
        for g in rng.integers(0, cfg.grids.total, 8):
            j, i = divmod(int(g), cfg.grids.g_theta)
            column = np.outer(omega[:, j], dicts.a_r[:, i]).ravel()
            np.testing.assert_allclose(op.column(int(g)), column, rtol=1e-12, atol=0)

    def test_refuses_zero_columns(self):
        cfg = load_experiment_config("desk")
        dicts = build_dictionaries(cfg.grids, cfg.system)
        broadside = cfg.grids.g_phi // 2
        with pytest.raises(DegenerateInputError, match=f"column {broadside} of the pilot factor"):
            build_sensing_matrix(_zero_column_design(cfg), dicts)
        a_r = dicts.a_r.copy()
        a_r[:, 1] = 0.0
        with pytest.raises(DegenerateInputError, match="column 1 of the AoA dictionary"):
            build_sensing_matrix(make_baseline_design(cfg, 4, 0), replace(dicts, a_r=a_r))


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
        norms = expand_runs(report.column_norm_runs)
        assert expand_runs(report.inner_product_runs).max() < 1e-12
        np.testing.assert_allclose(norms, norms[0], rtol=1e-12)

    def test_orthonormal_psi_scores_zero(self, tmp_path):
        # Every off-diagonal normalized entry is 0, the largest of which
        # scales the power sums: nu_p is 0 too, not 0/0.
        design, dicts = _orthonormal_design()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = coherence_report(design, dicts, 4)
        assert report.mutual_coherence == report.generalized == 0.0
        text = harness.save_report(report, tmp_path)["summary"].read_text()
        assert "NaN" not in text
        assert json.loads(text)["generalized_p"] == 0.0

    @pytest.mark.parametrize("total_power", [1e308, 1.7e308])
    def test_overflowing_omega_gram_refused(self, total_power):
        # Beyond any config's total_power limit, but a design built directly
        # may carry it: at 1.7e308 the desk Omega Gram overflows, at 1e308 not.
        cfg = load_experiment_config("desk")
        dicts = build_dictionaries(cfg.grids, cfg.system)
        design = make_baseline_design(cfg, 4, 0)
        scale = np.sqrt(total_power / design.total_power)
        design = PilotDesign(blocks=design.blocks * scale, allocation=design.allocation,
                             total_power=total_power)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if total_power > 1e308:
                with pytest.raises(DegenerateInputError, match="non-finite entry"):
                    coherence_report(design, dicts, 4)
            else:
                report = coherence_report(design, dicts, 4)
                assert 0.0 < report.mutual_coherence <= 1.0 and np.isfinite(report.generalized)

    def test_near_zero_column_keeps_inner_products_at_most_one(self):
        # Zero-mean pilot columns null the broadside Omega column up to
        # rounding. Rows wrapped in antenna space carry rounding relative to
        # the largest column and put this column's normalized products near
        # 1.1; explicit column products keep them within Cauchy-Schwarz.
        cfg = load_experiment_config("desk")
        dicts = build_dictionaries(cfg.grids, cfg.system)
        design = make_baseline_design(cfg, 6, 1)
        blocks = design.blocks - design.blocks.mean(axis=1, keepdims=True)
        blocks[[k for k in range(blocks.shape[0]) if k not in design.allocation]] = 0.0
        design = replace(design, blocks=blocks)
        report = coherence_report(design, dicts, 4)
        norms = expand_runs(report.column_norm_runs)
        assert norms[0] < 1e-12 * norms[-1]
        assert expand_runs(report.inner_product_runs)[-1] <= 1.0 + 1e-12

    def test_report_fields_and_welch_inequality(self):
        cfg = load_experiment_config("desk")
        dicts = build_dictionaries(cfg.grids, cfg.system)
        design = make_baseline_design(cfg, 6, 0)
        report = coherence_report(design, dicts, 4)
        assert report.n_obs == cfg.system.num_rx * cfg.system.seq_len * 6
        assert report.n_atoms == cfg.grids.total
        assert report.welch <= report.mutual_coherence <= 1.0
        inner, norms = expand_runs(report.inner_product_runs), expand_runs(report.column_norm_runs)
        assert np.all(np.diff(inner) >= 0)
        assert np.all(np.diff(norms) >= 0)
        assert inner.size == norms.size * (norms.size - 1) // 2
        summary = report.summary_dict()
        assert set(summary) == {"mutual", "generalized_p", "p", "welch_bound", "N", "G"}

    def test_generalized_matches_dense_psi(self):
        _, _, dicts, blocks = small_setup(19)
        for allocation in (tuple(range(8)), (0, 3, 5)):
            masked = np.zeros_like(blocks)
            masked[list(allocation)] = blocks[list(allocation)]
            design = PilotDesign(blocks=masked, allocation=allocation, total_power=1.0)
            psi = dense_psi(design, dicts)
            for p in (2, 4, 6):
                report = coherence_report(design, dicts, p)
                assert report.generalized == pytest.approx(
                    dense_generalized_coherence(psi, p), rel=1e-9
                )
                assert report.mutual_coherence == pytest.approx(
                    dense_mutual_coherence(psi), abs=1e-12
                )

    def test_generalized_excludes_the_diagonal_at_large_p(self):
        # The normalized diagonals are 1 only up to rounding, which a large
        # power would carry into nu_p; nu_p sums the off-diagonal pairs alone.
        _, _, dicts, blocks = small_setup(19)
        design = PilotDesign(blocks=blocks, allocation=tuple(range(8)), total_power=1.0)
        report = coherence_report(design, dicts, 1000)
        assert report.generalized == pytest.approx(
            dense_generalized_coherence(dense_psi(design, dicts), 1000), rel=1e-9
        )
        huge = coherence_report(design, dicts, 2**64)
        assert np.isfinite(huge.generalized)
        assert huge.mutual_coherence <= huge.generalized

    def test_cdf_holds_every_off_diagonal_omega_pair(self):
        _, _, dicts, blocks = small_setup(20)
        design = PilotDesign(blocks=blocks, allocation=tuple(range(8)), total_power=1.0)
        report = coherence_report(design, dicts, 4)
        gram = normalized_omega_gram(design, dicts)
        expected = np.sort(gram[np.triu_indices(gram.shape[0], k=1)])
        inner = expand_runs(report.inner_product_runs)
        np.testing.assert_allclose(inner, expected, rtol=1e-12, atol=1e-15)
        norms = np.linalg.norm(build_omega(blocks, dicts), axis=0)
        np.testing.assert_allclose(expand_runs(report.column_norm_runs), np.sort(norms), rtol=1e-12)

    def test_blockwise_scan_and_sampled_cdf(self, monkeypatch):
        # A small cap sends the CDF down the seeded-subsample path; the
        # summary metrics do not depend on it.
        _, _, dicts, blocks = small_setup(21)
        design = PilotDesign(blocks=blocks, allocation=(1, 2, 6), total_power=1.0)
        whole = coherence_report(design, dicts, 4)
        monkeypatch.setattr(coherence, "_DENSE_ENTRY_CAP", 100)
        monkeypatch.setattr(coherence, "_PAIR_SUBSAMPLE_SIZE", 500)
        split = coherence_report(design, dicts, 4)
        assert split.mutual_coherence == pytest.approx(whole.mutual_coherence, rel=1e-12)
        assert split.generalized == pytest.approx(whole.generalized, rel=1e-12)
        sampled = expand_runs(split.inner_product_runs)
        dense = expand_runs(whole.inner_product_runs)
        assert sampled.size == 500
        values, counts = split.inner_product_runs
        assert np.all(np.diff(values) >= 0)
        np.testing.assert_array_equal(counts, 1)
        assert sampled.max() <= dense.max() * (1 + 1e-12)
        assert sampled.min() >= dense.min() * (1 - 1e-12)
        again = coherence_report(design, dicts, 4)
        np.testing.assert_array_equal(expand_runs(again.inner_product_runs), sampled)
        # The subsample holds the dense Gram's values at the seeded (i, j) draws.
        gram = normalized_omega_gram(design, dicts)
        n = gram.shape[0]
        rng = np.random.default_rng(coherence._PAIR_SAMPLE_SEED)
        i = rng.integers(0, n, 500)
        j = rng.integers(0, n - 1, 500)
        j = np.where(j >= i, j + 1, j)
        np.testing.assert_allclose(sampled, np.sort(gram[i, j]), rtol=0, atol=1e-12)


def _assert_runs_expand_to_oracle(design, dicts):
    """Both CDFs' runs expand bit for bit to the sorted entry-by-entry oracle."""
    report = coherence_report(design, dicts, 4)
    op = build_sensing_matrix(design, dicts)
    norms = op.omega_norms
    rows = np.abs(op.gram_rows) / np.outer(norms, norms)
    np.fill_diagonal(rows[0], 0.0)
    n_cols = rows.shape[0] * rows.shape[1]
    for runs, expected in zip((report.inner_product_runs, report.column_norm_runs),
                              expanded_cdfs(rows, norms)):
        assert expand_runs(runs).tobytes() == expected.tobytes()
        assert np.all(runs[1] > 0)
    assert report.inner_product_runs[1].sum() == n_cols * (n_cols - 1) // 2
    assert report.column_norm_runs[1].sum() == n_cols


class TestCdfRuns:
    def test_desk_optimized_design_matches_oracle(self):
        cfg = load_experiment_config("desk")
        dicts = build_dictionaries(cfg.grids, cfg.system)
        x0 = gaussian_init(16, 8, 4, 0)
        design, _ = optimize(x0, dicts, cfg.optimizer, cfg.system.total_power)
        assert len(design.allocation) < cfg.system.num_subcarriers
        _assert_runs_expand_to_oracle(design, dicts)

    @pytest.mark.parametrize("target_q", [8, 9])
    def test_paper_baseline_matches_oracle(self, paper_baseline, target_q):
        dicts, design = paper_baseline
        if target_q != len(design.allocation):
            design = make_baseline_design(load_experiment_config("paper"), target_q, 0)
        _assert_runs_expand_to_oracle(design, dicts)


class TestPaperScaleReport:
    def test_matches_dense_omega_gram(self, paper_baseline):
        # 2 048 Omega columns: the dense Gram is 64 MiB and takes about 1 s.
        dicts, design = paper_baseline
        p = 4
        report = coherence_report(design, dicts, p)
        gram = normalized_omega_gram(design, dicts)
        n_cols, g_theta = gram.shape[0], dicts.a_r.shape[1]
        tol = dict(rtol=1e-12, atol=1e-14)
        mu = max(gram.max(), dense_mutual_coherence(dicts.a_r))
        np.testing.assert_allclose(report.mutual_coherence, mu, **tol)
        # Off-diagonal Kronecker sum with unit diagonals: (O + N)(A + G) - N G.
        omega_sum = np.sum(gram**p)
        ar_sum = dense_generalized_coherence(dicts.a_r, p) ** p
        nu_p = omega_sum * ar_sum + g_theta * omega_sum + n_cols * ar_sum
        np.testing.assert_allclose(report.generalized, nu_p ** (1.0 / p), **tol)
        upper = np.sort(gram[np.triu_indices(n_cols, k=1)])
        np.testing.assert_allclose(expand_runs(report.inner_product_runs), upper, **tol)
        norms = np.linalg.norm(sensing_omega(design, dicts), axis=0)
        np.testing.assert_allclose(expand_runs(report.column_norm_runs), np.sort(norms), **tol)

    def test_report_peak_memory(self, paper_baseline):
        # The Omega factor's dense Gram alone would be 64 MiB; the complex
        # rows are 2 MiB, and each of the CDF's value, count and order
        # arrays 1 MiB.
        dicts, design = paper_baseline
        tracemalloc.start()
        try:
            coherence_report(design, dicts, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 2**20
