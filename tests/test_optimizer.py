import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pilotopt import (
    DegenerateInputError,
    GridSpec,
    OptimizationDivergenceError,
    OptimizerConfig,
    SystemConfig,
    TraceRecord,
    block_penalty,
    build_dictionaries,
    extract_allocation,
    gaussian_init,
    load_experiment_config,
    loss_and_gradient,
    optimize,
)

from oracles import f_omega, reference_optimize


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
    dicts = build_dictionaries(GridSpec(g_theta=4, g_phi=8, g_tau=4), cfg)
    blocks = gaussian_init(8, 4, 2, seed)
    return cfg, dicts, blocks


class TestOptimizerConfig:
    @pytest.mark.parametrize(
        "field", ["q", "lambda_bar", "learning_rate", "beta1", "beta2", "eps", "zero_threshold_rel"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            OptimizerConfig(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            OptimizerConfig(seed=-1)


class TestBlockPenalty:
    def test_single_unit_block(self):
        x = np.zeros((3, 2, 2), dtype=complex)
        x[1, 0, 0] = 1.0
        assert block_penalty(x, 1.0) == pytest.approx(1.0)

    def test_hand_sum(self):
        x = np.zeros((3, 2, 2), dtype=complex)
        x[0, 0, 0] = 3.0
        x[1] = 2.0  # Frobenius norm 4
        assert block_penalty(x, 1.0) == pytest.approx(7.0)

    def test_degree_one_homogeneity(self):
        _, _, x = small_setup(1)
        base = block_penalty(x, 0.7)
        for s in (0.5, 2.0, 3.0):
            assert block_penalty(s * x, 0.7) == pytest.approx(s * base, rel=1e-10)

    def test_q_out_of_range(self):
        _, _, x = small_setup()
        for q in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                block_penalty(x, q)


class TestLoss:
    def test_scale_invariance(self):
        _, dicts, x = small_setup(2)
        cfg = OptimizerConfig(lambda_bar=1.5)
        base = loss_and_gradient(x, dicts, cfg)[0]
        for s in (0.5, 2.0, 3.0):
            assert loss_and_gradient(s * x, dicts, cfg)[0] == pytest.approx(base, rel=1e-12)

    def test_zero_penalty_weight_leaves_coherence_quotient(self):
        _, dicts, x = small_setup(3)
        cfg = OptimizerConfig(lambda_bar=0.0)
        expected = f_omega(x, dicts, cfg.p) / np.linalg.norm(x) ** 2
        assert loss_and_gradient(x, dicts, cfg)[0] == pytest.approx(expected, rel=1e-12)

    def test_composes_from_term_oracles(self):
        _, dicts, x = small_setup(4)
        cfg = OptimizerConfig(lambda_bar=0.8, q=1.0, p=4)
        total = np.linalg.norm(x)
        expected = f_omega(x, dicts, 4) / total**2 + 0.8 * block_penalty(x, 1.0) / total
        assert loss_and_gradient(x, dicts, cfg)[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_input_rejected(self):
        _, dicts, x = small_setup()
        with pytest.raises(DegenerateInputError):
            loss_and_gradient(np.zeros_like(x), dicts, OptimizerConfig())


class TestLossGradient:
    def test_finite_difference_agreement(self):
        _, dicts, _ = small_setup()
        rng = np.random.default_rng(20)
        cfg = OptimizerConfig(lambda_bar=1.5)
        shape = (8, 4, 2)
        for _ in range(3):
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            d = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            d /= np.linalg.norm(d)
            grad = loss_and_gradient(x, dicts, cfg)[1]
            analytic = 2.0 * np.real(np.vdot(grad, d))
            t = 1e-5
            plus, _ = loss_and_gradient(x + t * d, dicts, cfg)
            minus, _ = loss_and_gradient(x - t * d, dicts, cfg)
            fd = (plus - minus) / (2 * t)
            assert abs(fd - analytic) <= 1e-4 * max(abs(fd), abs(analytic))

    def test_zero_block_contributes_nothing(self):
        # the whole gradient block vanishes for an exactly-zero pilot block:
        # both loss terms act through multiplication by X_k
        _, dicts, x = small_setup(5)
        x[3] = 0.0
        grad = loss_and_gradient(x, dicts, OptimizerConfig(lambda_bar=1.5, q=1.0))[1]
        assert np.all(np.isfinite(grad))
        np.testing.assert_array_equal(grad[3], 0.0)

    def test_inverse_scale_property(self):
        _, dicts, x = small_setup(6)
        cfg = OptimizerConfig(lambda_bar=0.7)
        g1 = loss_and_gradient(x, dicts, cfg)[1]
        for s in (0.5, 2.0, 4.0):
            g2 = loss_and_gradient(s * x, dicts, cfg)[1]
            np.testing.assert_allclose(g2, g1 / s, rtol=1e-10)

    def test_zero_input_rejected(self):
        _, dicts, x = small_setup()
        with pytest.raises(DegenerateInputError):
            loss_and_gradient(np.zeros_like(x), dicts, OptimizerConfig())


class TestOptimize:
    def test_zero_iterations_returns_normalized_initial(self):
        _, dicts, x0 = small_setup(7)
        cfg = OptimizerConfig(iterations=0, lambda_bar=1.5)
        design, trace = optimize(x0, dicts, cfg, total_power=64.0)
        expected = np.sqrt(64.0) / np.linalg.norm(x0) * x0
        np.testing.assert_allclose(design.blocks, expected, rtol=1e-12)
        assert design.allocation == tuple(range(8))
        assert [r.iteration for r in trace] == [0]

    def test_deterministic_given_seed(self):
        _, dicts, _ = small_setup()
        cfg = OptimizerConfig(iterations=40, lambda_bar=1.0, seed=3)
        x0 = gaussian_init(8, 4, 2, cfg.seed)
        d1, _ = optimize(x0, dicts, cfg, 64.0)
        d2, _ = optimize(gaussian_init(8, 4, 2, cfg.seed), dicts, cfg, 64.0)
        np.testing.assert_array_equal(d1.blocks, d2.blocks)
        assert d1.allocation == d2.allocation

    def test_loss_decreases_on_short_run(self):
        _, dicts, x0 = small_setup(8)
        cfg = OptimizerConfig(iterations=300, lambda_bar=0.0, learning_rate=3e-3)
        _, trace = optimize(x0, dicts, cfg, 64.0)
        assert trace[-1].loss < trace[0].loss
        assert np.all(np.diff([r.iteration for r in trace]) > 0)

    def test_power_constraint_after_extraction(self):
        _, dicts, x0 = small_setup(9)
        cfg = OptimizerConfig(iterations=50, lambda_bar=2.0)
        design, _ = optimize(x0, dicts, cfg, 64.0)
        assert float(np.sum(np.abs(design.blocks) ** 2)) == pytest.approx(64.0, rel=1e-10)

    def test_divergence_raises_with_iteration_index(self):
        _, dicts, x0 = small_setup(10)
        cfg = OptimizerConfig(iterations=5, learning_rate=1e200, lambda_bar=0.0)
        with pytest.raises(OptimizationDivergenceError) as err:
            optimize(x0, dicts, cfg, 64.0)
        assert err.value.iteration >= 1

    def test_zero_initial_rejected(self):
        _, dicts, x0 = small_setup()
        with pytest.raises(DegenerateInputError):
            optimize(np.zeros_like(x0), dicts, OptimizerConfig(iterations=1), 64.0)

    def test_trace_records_subsampled_iterations(self):
        _, dicts, x0 = small_setup(11)
        cfg = OptimizerConfig(iterations=100, lambda_bar=0.5)
        _, trace = optimize(x0, dicts, cfg, 64.0, trace_every=30)
        assert [r.iteration for r in trace] == [0, 30, 60, 90, 99, 100]

    def test_trace_records_hold_python_scalars(self):
        # With lambda_bar > 0 the loss and g term are numpy floats until recorded.
        _, dicts, x0 = small_setup(11)
        cfg = OptimizerConfig(iterations=10, lambda_bar=0.5)
        _, trace = optimize(x0, dicts, cfg, 64.0, trace_every=3)
        for record in trace:
            assert type(record) is TraceRecord
            assert type(record.iteration) is int
            assert all(type(value) is float for value in record[1:])

    def test_paper_run_peak_memory(self):
        # The engine's 5 MiB arena, x, m, v, two scratch arrays and one
        # gradient of 256 kB each at most, and the engine's weights; the
        # loop's arrays are freed before the final rescaling.
        cfg = load_experiment_config("paper")
        dicts = build_dictionaries(cfg.grids, cfg.system)
        dicts.delay_weights  # cached once per dictionary set
        s = cfg.system
        x0 = gaussian_init(s.num_subcarriers, s.num_tx, s.seq_len, 4)
        opt = replace(cfg.optimizer, iterations=3)
        tracemalloc.start()
        try:
            optimize(x0, dicts, opt, s.total_power)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 2**20


class TestAdamMatchesOracle:
    @pytest.mark.parametrize("trace_every, zeroed", [(1, False), (7, False), (1, True)])
    def test_desk_matches_out_of_place_oracle_bitwise(self, trace_every, zeroed):
        cfg = load_experiment_config("desk")
        dicts = build_dictionaries(cfg.grids, cfg.system)
        s = cfg.system
        x0 = gaussian_init(s.num_subcarriers, s.num_tx, s.seq_len, 5)
        if zeroed:
            x0[::3] = 0.0
        opt = replace(cfg.optimizer, iterations=300, lambda_bar=1.5)
        self.assert_matches_oracle(x0, dicts, opt, s.total_power, trace_every)

    def test_paper_shape_matches_out_of_place_oracle_bitwise(self):
        # The (64, 32, 8) blocks where multiplying by reciprocals pays.
        cfg = load_experiment_config("paper")
        dicts = build_dictionaries(cfg.grids, cfg.system)
        s = cfg.system
        x0 = gaussian_init(s.num_subcarriers, s.num_tx, s.seq_len, 5)
        opt = replace(cfg.optimizer, iterations=5)
        self.assert_matches_oracle(x0, dicts, opt, s.total_power, 1)

    @staticmethod
    def assert_matches_oracle(x0, dicts, opt, total_power, trace_every):
        design, trace = optimize(x0, dicts, opt, total_power, trace_every=trace_every)
        ref_design, ref_trace = reference_optimize(x0, dicts, opt, total_power, trace_every)
        assert design.blocks.tobytes() == ref_design.blocks.tobytes()
        assert design.allocation == ref_design.allocation
        assert trace == ref_trace


class TestExtractAllocation:
    def test_thresholding_keeps_live_blocks(self):
        x = np.zeros((3, 2, 2), dtype=complex)
        x[0, 0, 0] = 1.0
        x[2, 0, 0] = 0.5
        design = extract_allocation(x, 1e-3, total_power=4.0)
        assert design.allocation == (0, 2)
        np.testing.assert_array_equal(design.blocks[1], 0.0)
        assert float(np.sum(np.abs(design.blocks) ** 2)) == pytest.approx(4.0, rel=1e-10)

    def test_all_equal_blocks_keep_everything(self):
        x = np.ones((5, 2, 2), dtype=complex)
        design = extract_allocation(x, 1e-3, total_power=10.0)
        assert design.allocation == tuple(range(5))

    def test_relative_threshold(self):
        x = np.zeros((2, 1, 1), dtype=complex)
        x[0] = 1.0
        x[1] = 1e-5  # below 1e-3 relative to the peak
        design = extract_allocation(x, 1e-3, total_power=1.0)
        assert design.allocation == (0,)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            extract_allocation(np.zeros((3, 2, 2), dtype=complex), 1e-3, 1.0)

    def test_non_finite_rejected(self):
        x = np.ones((2, 1, 1), dtype=complex)
        x[0] = np.nan
        with pytest.raises(ValueError):
            extract_allocation(x, 1e-3, 1.0)

    @pytest.mark.parametrize("threshold", [0.0, -1e-3, 1.0, 2.0])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        # At 1 or above no block norm exceeds the threshold, so nothing would be kept.
        with pytest.raises(ValueError, match="zero_threshold_rel"):
            extract_allocation(np.ones((3, 2, 2), dtype=complex), threshold, 1.0)
        with pytest.raises(ValueError, match="zero_threshold_rel"):
            OptimizerConfig(zero_threshold_rel=threshold)
