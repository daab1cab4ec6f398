import tracemalloc

import numpy as np
import pytest

from pilotopt import (
    ChannelRealization,
    GridSpec,
    SystemConfig,
    assemble_channel,
    build_dictionaries,
    delay_response,
    load_experiment_config,
    make_grids,
    steering_vector,
)

from oracles import encode_grid_index, virtual_channel


def small_config(**overrides):
    base = dict(
        bandwidth_hz=1.92e6,
        num_subcarriers=8,
        num_tx=4,
        num_rx=2,
        seq_len=2,
        total_power=16.0,
        num_delay_taps=4,
    )
    base.update(overrides)
    return SystemConfig(**base)


class TestMakeGrids:
    def test_angle_grid_starts_at_minus_half_pi(self):
        cfg = small_config(num_rx=8)
        theta, _, _ = make_grids(GridSpec(g_theta=16, g_phi=4, g_tau=2), cfg)
        assert theta.size == 16
        assert theta[0] == pytest.approx(-np.pi / 2)

    def test_delay_grid_endpoints(self):
        cfg = small_config(num_subcarriers=64, num_delay_taps=16)
        _, _, tau = make_grids(GridSpec(g_theta=4, g_phi=4, g_tau=2), cfg)
        np.testing.assert_allclose(tau, [0.0, 15 / 1.92e6])

    def test_aod_grid_sines(self):
        _, phi, _ = make_grids(GridSpec(g_theta=2, g_phi=4, g_tau=2), small_config())
        np.testing.assert_allclose(np.sin(phi), [-1.0, -0.5, 0.0, 0.5], atol=1e-15)

    def test_grids_strictly_increasing(self):
        theta, phi, tau = make_grids(GridSpec(g_theta=9, g_phi=5, g_tau=7), small_config())
        for g in (theta, phi, tau):
            assert np.all(np.diff(g) > 0)

    def test_single_delay_point_rejected(self):
        with pytest.raises(ValueError):
            make_grids(GridSpec(g_theta=4, g_phi=4, g_tau=1), small_config())


class TestGridSpec:
    def test_grid_too_large_for_one_array_rejected(self):
        # 16 bytes per complex entry: one atom past the largest indexable array
        limit = np.iinfo(np.intp).max // np.dtype(complex).itemsize
        assert GridSpec(g_theta=1, g_phi=1, g_tau=limit).total == limit
        with pytest.raises(ValueError, match="too large"):
            GridSpec(g_theta=1, g_phi=1, g_tau=limit + 1)
        with pytest.raises(ValueError, match="too large"):
            GridSpec(g_theta=16, g_phi=16, g_tau=2**62)


class TestBuildDictionaries:
    def test_shapes(self):
        cfg = small_config()
        d = build_dictionaries(GridSpec(g_theta=4, g_phi=8, g_tau=4), cfg)
        assert d.a_r.shape == (2, 4)
        assert d.a_t.shape == (4, 8)
        assert d.b.shape == (8, 4)

    def test_columns_match_generators_exactly(self):
        cfg = small_config()
        spec = GridSpec(g_theta=4, g_phi=8, g_tau=4)
        d = build_dictionaries(spec, cfg)
        _, phi, tau = make_grids(spec, cfg)
        for g in range(spec.g_phi):
            np.testing.assert_array_equal(d.a_t[:, g], steering_vector(phi[g], cfg.num_tx, 0.5))
        for g in range(spec.g_tau):
            np.testing.assert_array_equal(d.b[:, g], delay_response(tau[g], cfg))

    @pytest.mark.parametrize("profile", ["desk", "paper"])
    def test_array_calls_match_stacked_scalar_calls(self, profile):
        cfg = load_experiment_config(profile)
        s = cfg.system
        theta, phi, tau = make_grids(cfg.grids, s)
        for angles, n, spacing in ((theta, s.num_rx, s.rx_spacing_wavelengths),
                                   (phi, s.num_tx, s.tx_spacing_wavelengths)):
            np.testing.assert_array_equal(
                steering_vector(angles, n, spacing),
                np.stack([steering_vector(a, n, spacing) for a in angles], axis=1),
            )
        np.testing.assert_array_equal(
            delay_response(tau, s), np.stack([delay_response(t, s) for t in tau], axis=1)
        )

    def test_broadside_and_zero_delay_columns_are_ones(self):
        cfg = small_config()
        d = build_dictionaries(GridSpec(g_theta=4, g_phi=4, g_tau=4), cfg)
        # sin(theta) = 0 occurs at grid index G/2
        np.testing.assert_allclose(d.a_r[:, 2], np.ones(2), atol=1e-15)
        np.testing.assert_array_equal(d.b[:, 0], np.ones(8))

    def test_unit_magnitude_entries(self):
        d = build_dictionaries(GridSpec(g_theta=5, g_phi=6, g_tau=3), small_config())
        for mat in (d.a_r, d.a_t, d.b):
            np.testing.assert_allclose(np.abs(mat), 1.0, atol=1e-14)


class TestDelayWeights:
    def test_uniform_grid_check_peak_memory(self):
        # The whole (K, G_tau, G_tau) weight tensor here is 16 MiB.
        cfg = small_config(num_subcarriers=256, num_delay_taps=256)
        dicts = build_dictionaries(GridSpec(g_theta=2, g_phi=2, g_tau=64), cfg)
        tracemalloc.start()
        try:
            weights = dicts.delay_weights
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert weights.shape == (256, 64)
        assert peak <= 4 * 2**20


class TestGridIndex:
    """The oracle encoder and ``np.unravel_index``, which the package decodes with."""

    def test_round_trip_all_tuples(self):
        spec = GridSpec(g_theta=3, g_phi=4, g_tau=5)
        shape = (spec.g_tau, spec.g_phi, spec.g_theta)
        seen = set()
        for gt in range(5):
            for gp in range(4):
                for gth in range(3):
                    g = encode_grid_index(gt, gp, gth, spec)
                    assert np.unravel_index(g, shape) == (gt, gp, gth)
                    seen.add(g)
        assert seen == set(range(spec.total))

    def test_out_of_range_rejected(self):
        spec = GridSpec(g_theta=3, g_phi=4, g_tau=5)
        with pytest.raises(ValueError):
            encode_grid_index(5, 0, 0, spec)
        for g in (spec.total, -1):
            with pytest.raises(ValueError):
                np.unravel_index(g, (spec.g_tau, spec.g_phi, spec.g_theta))


class TestVirtualChannel:
    def setup_method(self):
        self.cfg = small_config()
        self.spec = GridSpec(g_theta=4, g_phi=8, g_tau=4)
        self.dicts = build_dictionaries(self.spec, self.cfg)

    def test_zero_coefficients_give_zero(self):
        out = virtual_channel(self.dicts, np.zeros(self.spec.total, dtype=complex))
        np.testing.assert_array_equal(out, 0.0)

    def test_unit_coefficient_selects_kronecker_column(self):
        g = encode_grid_index(2, 5, 1, self.spec)
        alpha = np.zeros(self.spec.total, dtype=complex)
        alpha[g] = 1.0
        expected = np.kron(
            self.dicts.b[:, 2], np.kron(self.dicts.a_t[:, 5].conj(), self.dicts.a_r[:, 1])
        )
        np.testing.assert_allclose(virtual_channel(self.dicts, alpha), expected, atol=1e-13)

    def test_matches_dense_kronecker_product(self):
        rng = np.random.default_rng(4)
        alpha = rng.standard_normal(self.spec.total) + 1j * rng.standard_normal(self.spec.total)
        dense = np.kron(self.dicts.b, np.kron(self.dicts.a_t.conj(), self.dicts.a_r))
        got = virtual_channel(self.dicts, alpha)
        ref = dense @ alpha
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_on_grid_single_path_matches_physical_channel(self):
        gt, gp, gth = 3, 6, 2
        gain = 0.8 - 1.1j
        alpha = np.zeros(self.spec.total, dtype=complex)
        alpha[encode_grid_index(gt, gp, gth, self.spec)] = gain
        theta, phi, tau = make_grids(self.spec, self.cfg)
        realization = ChannelRealization(
            aoas=np.array([theta[gth]]),
            aods=np.array([phi[gp]]),
            delays=np.array([tau[gt]]),
            gains=np.array([gain]),
        )
        physical = assemble_channel(realization, self.cfg).stacked
        np.testing.assert_allclose(
            virtual_channel(self.dicts, alpha), physical, rtol=1e-12, atol=1e-12
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            virtual_channel(self.dicts, np.zeros(self.spec.total - 1, dtype=complex))
