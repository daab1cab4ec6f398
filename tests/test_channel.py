import cmath

import numpy as np
import pytest

from pilotopt import (
    ChannelRealization,
    SystemConfig,
    assemble_channel,
    delay_response,
    sample_channel,
    steering_vector,
    subcarrier_offsets,
)

from oracles import khatri_rao_channel


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


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        np.testing.assert_array_equal(steering_vector(0.0, 4, 0.5), np.ones(4))

    def test_endfire_alternates_sign(self):
        got = steering_vector(np.pi / 2, 2, 0.5)
        np.testing.assert_allclose(got, [1.0, -1.0], atol=1e-12)

    def test_thirty_degrees_quarter_turns(self):
        # phase step 2*pi*0.5*sin(pi/6) = pi/2 per element
        got = steering_vector(np.pi / 6, 3, 0.5)
        np.testing.assert_allclose(got, [1.0, 1j, -1.0], atol=1e-12)

    def test_unit_magnitude_and_leading_one(self):
        rng = np.random.default_rng(0)
        for angle in rng.uniform(-np.pi / 2, np.pi / 2, 20):
            v = steering_vector(angle, 7, 0.5)
            assert v[0] == 1.0 + 0.0j
            np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-14)

    def test_rejects_empty_array(self):
        with pytest.raises(ValueError):
            steering_vector(0.1, 0, 0.5)

    def test_rejects_non_finite_angle(self):
        with pytest.raises(ValueError):
            steering_vector(np.nan, 3, 0.5)
        with pytest.raises(ValueError):
            steering_vector(np.array([0.1, np.inf]), 3, 0.5)


class TestDelayResponse:
    def test_zero_delay_is_all_ones(self):
        cfg = small_config()
        np.testing.assert_array_equal(delay_response(0.0, cfg), np.ones(cfg.num_subcarriers))

    def test_two_subcarrier_hand_case(self):
        # B = 2 Hz, K = 2: offsets are {-1, 0} Hz
        cfg = small_config(bandwidth_hz=2.0, num_subcarriers=2, num_delay_taps=2)
        tau = 0.3
        got = delay_response(tau, cfg)
        expected = [cmath.exp(2j * np.pi * tau), 1.0]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_quarter_offsets_case(self):
        # K = 4: offsets/B = {-1/2, -1/4, 0, 1/4}; delay 1/B
        cfg = small_config(bandwidth_hz=8.0, num_subcarriers=4, num_delay_taps=4)
        got = delay_response(1.0 / cfg.bandwidth_hz, cfg)
        fracs = np.array([-0.5, -0.25, 0.0, 0.25])
        np.testing.assert_allclose(got, np.exp(-2j * np.pi * fracs), atol=1e-12)

    def test_offsets_formula(self):
        cfg = small_config()
        k = np.arange(cfg.num_subcarriers)
        expected = -cfg.bandwidth_hz / 2 + k * cfg.bandwidth_hz / cfg.num_subcarriers
        np.testing.assert_allclose(subcarrier_offsets(cfg), expected)

    def test_unit_magnitude(self):
        cfg = small_config()
        np.testing.assert_allclose(np.abs(delay_response(3.7e-7, cfg)), 1.0, atol=1e-14)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            delay_response(-1e-9, small_config())
        with pytest.raises(ValueError):
            delay_response(np.array([0.0, -1e-9]), small_config())

    def test_rejects_non_finite_delay(self):
        for delay in (np.nan, np.inf, np.array([0.0, np.nan])):
            with pytest.raises(ValueError, match="delay must be finite"):
                delay_response(delay, small_config())


class TestSampleChannel:
    def test_deterministic_for_fixed_seed(self):
        cfg = small_config()
        a = sample_channel(cfg, 4, 10.0, 123)
        b = sample_channel(cfg, 4, 10.0, 123)
        np.testing.assert_array_equal(a.gains, b.gains)
        np.testing.assert_array_equal(a.aoas, b.aoas)
        np.testing.assert_array_equal(a.aods, b.aods)
        np.testing.assert_array_equal(a.delays, b.delays)

    def test_rejects_nonpositive_path_count(self):
        with pytest.raises(ValueError):
            sample_channel(small_config(), 0, 10.0, 0)

    def test_ranges(self):
        cfg = small_config()
        r = sample_channel(cfg, 64, 10.0, 7)
        assert np.all(r.aoas >= -np.pi / 2) and np.all(r.aoas < np.pi / 2)
        assert np.all(r.aods >= -np.pi / 2) and np.all(r.aods < np.pi / 2)
        assert np.all(r.delays >= 0.0) and np.all(r.delays <= cfg.max_delay_s)

    def test_rician_variance_split(self):
        # K-factor 10 dB: LoS variance 10/11, each NLoS 1/(11*(L-1)),
        # so the total expected path power is 1.
        cfg = small_config()
        total = 0.0
        n = 100_000
        for seed in range(n):
            r = sample_channel(cfg, 6, 10.0, seed)
            total += float(np.sum(np.abs(r.gains) ** 2))
        assert abs(total / n - 1.0) < 0.02

    def test_single_path_is_los_only(self):
        r = sample_channel(small_config(), 1, 10.0, 11)
        assert len(r.gains) == 1


class TestAssembleChannel:
    def test_single_unit_path_gives_all_ones(self):
        cfg = small_config()
        r = ChannelRealization(
            aoas=np.array([0.0]),
            aods=np.array([0.0]),
            delays=np.array([0.0]),
            gains=np.array([1.0 + 0.0j]),
        )
        h = assemble_channel(r, cfg)
        np.testing.assert_allclose(h.per_subcarrier, np.ones_like(h.per_subcarrier), atol=1e-12)
        np.testing.assert_allclose(h.stacked, np.ones_like(h.stacked), atol=1e-12)

    def test_linear_in_gains(self):
        cfg = small_config()
        rng = np.random.default_rng(2)
        base = sample_channel(cfg, 3, 10.0, 5)
        g1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        g2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)

        def with_gains(g):
            return assemble_channel(
                ChannelRealization(aoas=base.aoas, aods=base.aods, delays=base.delays, gains=g),
                cfg,
            ).stacked

        lhs = with_gains(g1 + g2)
        rhs = with_gains(g1) + with_gains(g2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_scaling_in_gains(self):
        cfg = small_config()
        base = sample_channel(cfg, 2, 10.0, 9)
        scaled = ChannelRealization(
            aoas=base.aoas, aods=base.aods, delays=base.delays, gains=3.5j * base.gains
        )
        np.testing.assert_allclose(
            assemble_channel(scaled, cfg).stacked,
            3.5j * assemble_channel(base, cfg).stacked,
            rtol=1e-12,
        )

    def test_stacked_matches_per_subcarrier_vectorization(self):
        cfg = small_config()
        r = sample_channel(cfg, 3, 10.0, 21)
        h = assemble_channel(r, cfg)
        # column-major vec of each Nr x Nt matrix, concatenated over k
        expected = np.concatenate(
            [h.per_subcarrier[k].ravel(order="F") for k in range(cfg.num_subcarriers)]
        )
        np.testing.assert_allclose(h.stacked, expected, rtol=1e-12, atol=1e-12)

    def test_matches_khatri_rao_oracle(self):
        for seed, paths in ((41, 1), (42, 3), (43, 8)):
            cfg = small_config(num_tx=5, num_rx=3)
            r = sample_channel(cfg, paths, 10.0, seed)
            h = assemble_channel(r, cfg)
            expected = khatri_rao_channel(r, cfg)
            np.testing.assert_allclose(h.stacked, expected, rtol=1e-12, atol=1e-12)

    def test_stacked_is_a_view_of_per_subcarrier(self):
        cfg = small_config()
        h = assemble_channel(sample_channel(cfg, 3, 10.0, 44), cfg)
        assert np.shares_memory(h.stacked, h.per_subcarrier)
        assert h.per_subcarrier.shape == (cfg.num_subcarriers, cfg.num_rx, cfg.num_tx)
        assert h.stacked.shape == (cfg.num_subcarriers * cfg.num_rx * cfg.num_tx,)

    def test_elementwise_oracle(self):
        # brute-force sum over paths, one scalar entry at a time
        cfg = small_config(num_subcarriers=4, num_tx=3, num_rx=2, num_delay_taps=2)
        r = sample_channel(cfg, 3, 10.0, 33)
        h = assemble_channel(r, cfg)
        offsets = subcarrier_offsets(cfg)
        for k in range(cfg.num_subcarriers):
            for rx in range(cfg.num_rx):
                for tx in range(cfg.num_tx):
                    val = 0.0 + 0.0j
                    for l in range(len(r.gains)):
                        val += (
                            r.gains[l]
                            * cmath.exp(-2j * np.pi * offsets[k] * r.delays[l])
                            * cmath.exp(2j * np.pi * 0.5 * rx * np.sin(r.aoas[l]))
                            * cmath.exp(-2j * np.pi * 0.5 * tx * np.sin(r.aods[l]))
                        )
                    assert abs(h.per_subcarrier[k, rx, tx] - val) < 1e-10


class TestSystemConfig:
    def test_rejects_too_many_taps(self):
        with pytest.raises(ValueError):
            small_config(num_delay_taps=9)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            small_config(total_power=0.0)

    def test_max_delay(self):
        cfg = small_config()
        assert cfg.max_delay_s == pytest.approx(3 / 1.92e6)

    @pytest.mark.parametrize(
        "field",
        [
            "bandwidth_hz",
            "total_power",
            "tx_spacing_wavelengths",
            "rx_spacing_wavelengths",
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            small_config(**{field: value})
