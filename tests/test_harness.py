import csv
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pilotopt import (
    ChannelModelConfig,
    ConfigError,
    DegenerateInputError,
    PilotDesign,
    TraceRecord,
    build_dictionaries,
    coherence_report,
    gaussian_init,
    load_design,
    load_experiment_config,
    make_baseline_design,
    optimize,
    run_baseline,
    run_design,
    run_estimate,
    run_gradcheck,
    run_report,
    run_sweep,
    save_design,
)
from pilotopt import estimator, harness
from pilotopt.cli import main

from oracles import design_json, expand_runs, median_difference_ci, write_csv_rows


TINY_OVERRIDES = """
# fast settings for tests
iterations = 40
num_trials = 3
snr_db_list = 10
"""


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_OVERRIDES)
    return load_experiment_config("desk", path)


class TestConfigLoading:
    def test_profiles_are_valid(self):
        for name in ("desk", "paper"):
            cfg = load_experiment_config(name)
            assert cfg.evaluation.num_trials >= 1
            assert cfg.grids.total >= 1

    def test_override_applies(self, tmp_path):
        path = tmp_path / "o.cfg"
        path.write_text("num_trials = 7\nlambda_bar = 0.25\nsnr_db_list = 0, 10\n")
        cfg = load_experiment_config("desk", path)
        assert cfg.evaluation.num_trials == 7
        assert cfg.optimizer.lambda_bar == 0.25
        assert cfg.evaluation.snr_db_list == (0.0, 10.0)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        # No code reads a carrier frequency, and OMP is the only solver.
        for key in ("not_a_real_key", "carrier_freq_hz", "solver"):
            path.write_text(f"{key} = 1\n")
            with pytest.raises(ConfigError, match=f"^{key}: unknown configuration key"):
                load_experiment_config("desk", path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("num_trials = soon\n")
        with pytest.raises(ConfigError, match="num_trials"):
            load_experiment_config("desk", path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError):
            load_experiment_config("desk", path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_experiment_config("desk", tmp_path / "nope.cfg")

    def test_seed_override(self):
        cfg = load_experiment_config("desk", None, seed_override=99)
        assert cfg.base_seed == 99
        assert cfg.optimizer.seed == 99

    @pytest.mark.parametrize("override", ["base_seed = -1", "opt_seed = -2"])
    def test_negative_seed_rejected(self, tmp_path, override):
        path = tmp_path / "c.cfg"
        path.write_text(override + "\n")
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            load_experiment_config("desk", path)

    def test_non_utf8_config_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"num_trials = 2\n\xff\n")
        with pytest.raises(ConfigError, match="not text"):
            load_experiment_config("desk", path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("\n# comment only\nnum_trials = 2  # trailing comment\n\n")
        assert load_experiment_config("desk", path).evaluation.num_trials == 2


class TestChannelModelConfig:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rician_k_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            ChannelModelConfig(num_paths=3, rician_k_db=value)

    def test_finite_accepted(self):
        assert ChannelModelConfig(num_paths=3, rician_k_db=-5.0).rician_k_db == -5.0


class TestDesignPersistence:
    def test_round_trip(self, tmp_path):
        cfg = load_experiment_config("desk")
        design = make_baseline_design(cfg, 5, 0)
        path = tmp_path / "d.json"
        save_design(design, path)
        loaded = load_design(path)
        np.testing.assert_array_equal(loaded.blocks, design.blocks)
        assert loaded.allocation == design.allocation
        assert loaded.total_power == design.total_power

    def test_schema_keys(self, tmp_path):
        cfg = load_experiment_config("desk")
        design = make_baseline_design(cfg, 4, 0)
        path = tmp_path / "d.json"
        save_design(design, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"K", "M", "Nt", "Pt", "allocation", "x_real", "x_imag"}
        assert len(payload["x_real"]) == design.num_tx
        assert len(payload["x_real"][0]) == design.num_subcarriers * design.seq_len

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_bytes_match_whole_payload_dumps(self, tmp_path, data):
        k, nt, m = (data.draw(st.integers(1, n)) for n in (6, 4, 3))
        entries = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, -2.2e-308, 1e300, -1e300, 0.1])
        values = data.draw(st.lists(entries | st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=2 * k * nt * m, max_size=2 * k * nt * m))
        parts = np.asarray(values).reshape(2, k, nt, m)
        allocation = data.draw(st.sampled_from([range(k), range(0, k, 2), [k - 1]]))
        power = data.draw(st.sampled_from([1.0, 512.0, 1e300, 7]))
        design = PilotDesign(blocks=parts[0] + 1j * parts[1], allocation=tuple(allocation),
                             total_power=power)
        path = tmp_path / "d.json"
        save_design(design, path)
        assert path.read_bytes() == design_json(design).encode()

    def test_paper_save_memory_bounded_by_one_row(self, tmp_path):
        # The whole payload's text and float lists of a Q = 64 paper design
        # take about 4.6 MiB; one pilot row's take a few kB.
        cfg = load_experiment_config("paper")
        design = make_baseline_design(cfg, cfg.system.num_subcarriers, 0)
        tracemalloc.start()
        try:
            save_design(design, tmp_path / "d.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "d.json").read_text() == design_json(design)
        assert peak <= 1 << 20

    def test_corrupted_power_rejected(self, tmp_path):
        cfg = load_experiment_config("desk")
        design = make_baseline_design(cfg, 4, 0)
        path = tmp_path / "d.json"
        save_design(design, path)
        payload = json.loads(path.read_text())
        payload["Pt"] = payload["Pt"] * 2
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="power"):
            load_design(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_design(path)

    @staticmethod
    def _corrupt(tmp_path, change):
        cfg = load_experiment_config("desk")
        path = tmp_path / "d.json"
        save_design(make_baseline_design(cfg, 4, 0), path)
        payload = json.loads(path.read_text())
        change(payload)
        path.write_text(json.dumps(payload))
        return path

    def test_out_of_range_allocation_rejected(self, tmp_path):
        def change(payload):
            payload["allocation"][-1] = payload["K"]

        with pytest.raises(ConfigError, match="out of range"):
            load_design(self._corrupt(tmp_path, change))

    def test_nan_pilot_entry_rejected(self, tmp_path):
        def change(payload):
            payload["x_real"][0][0] = float("nan")

        with pytest.raises(ConfigError, match="non-finite"):
            load_design(self._corrupt(tmp_path, change))

    def test_nonzero_block_outside_allocation_rejected(self, tmp_path):
        def change(payload):
            # move one allocated subcarrier's index to an unallocated slot,
            # leaving its nonzero block outside the allocation
            unused = sorted(set(range(payload["K"])) - set(payload["allocation"]))
            payload["allocation"] = sorted(payload["allocation"][1:] + [unused[0]])

        with pytest.raises(ConfigError, match="outside the allocation"):
            load_design(self._corrupt(tmp_path, change))

    @pytest.mark.parametrize("fields", [
        {"K": -16, "M": -4},  # negative sizes whose product matches the pilot width
        {"K": float("inf")},
        {"Pt": 10**400},
    ])
    def test_unrepresentable_fields_rejected(self, tmp_path, fields):
        with pytest.raises(ConfigError):
            load_design(self._corrupt(tmp_path, lambda payload: payload.update(fields)))

    @pytest.mark.parametrize("change", [
        lambda payload: payload.update(K=16.9),
        lambda payload: payload.update(M=4.7),
        lambda payload: payload["allocation"].__setitem__(0, True),  # subcarrier 1
        lambda payload: payload["allocation"].__setitem__(1, 5.7),
    ], ids=["K-float", "M-float", "allocation-true", "allocation-float"])
    def test_non_integer_sizes_and_allocation_rejected(self, tmp_path, change):
        # Each change used to load after truncation through int().
        blocks = np.zeros((16, 8, 4), dtype=complex)
        blocks[[1, 5]] = 1.0
        path = tmp_path / "d.json"
        save_design(PilotDesign(blocks=blocks, allocation=(1, 5), total_power=64.0), path)
        payload = json.loads(path.read_text())
        change(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="expected an integer"):
            load_design(path)

    def test_huge_pilot_entry_rejected(self, tmp_path):
        def change(payload):
            payload["x_real"][0][0] = 10**400

        with pytest.raises(ConfigError):
            load_design(self._corrupt(tmp_path, change))

    def test_overflowing_power_rejected_without_warning(self, tmp_path):
        def change(payload):
            column = payload["allocation"][0] * payload["M"]  # an allocated subcarrier's entry
            payload["x_real"][0][column] = 1e300

        path = self._corrupt(tmp_path, change)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="stored power"):
                load_design(path)

    def test_non_utf8_design_rejected(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_bytes(b'{"K": \x80}')
        with pytest.raises(ConfigError, match="malformed"):
            load_design(path)


class TestBaseline:
    def test_full_allocation(self):
        cfg = load_experiment_config("desk")
        design = make_baseline_design(cfg, cfg.system.num_subcarriers, 0)
        assert design.allocation == tuple(range(cfg.system.num_subcarriers))

    def test_seeded_reproducibility(self):
        cfg = load_experiment_config("desk")
        a = make_baseline_design(cfg, 6, 42)
        b = make_baseline_design(cfg, 6, 42)
        np.testing.assert_array_equal(a.blocks, b.blocks)
        assert a.allocation == b.allocation

    def test_power_normalization(self):
        cfg = load_experiment_config("desk")
        design = make_baseline_design(cfg, 6, 1)
        assert float(np.sum(np.abs(design.blocks) ** 2)) == pytest.approx(
            cfg.system.total_power, rel=1e-10
        )

    def test_allocation_size(self):
        cfg = load_experiment_config("desk")
        assert len(make_baseline_design(cfg, 9, 3).allocation) == 9

    @pytest.mark.parametrize("target_q", [1, 8, 64])
    def test_matches_per_block_draws(self, target_q):
        # One draw per block, real part then imaginary, in allocation order.
        cfg = load_experiment_config("paper")
        s = cfg.system
        rng = np.random.default_rng(17)
        allocation = sorted(int(v) for v in rng.choice(s.num_subcarriers, target_q, replace=False))
        blocks = np.zeros((s.num_subcarriers, s.num_tx, s.seq_len), dtype=complex)
        for k in allocation:
            blocks[k] = rng.standard_normal((s.num_tx, s.seq_len)) + 1j * rng.standard_normal(
                (s.num_tx, s.seq_len)
            )
        blocks *= np.sqrt(s.total_power / float(np.sum(np.abs(blocks) ** 2)))
        design = make_baseline_design(cfg, target_q, 17)
        assert design.allocation == tuple(allocation)
        assert design.blocks.tobytes() == blocks.tobytes()

    def test_oversized_target_rejected(self):
        cfg = load_experiment_config("desk")
        with pytest.raises(ValueError):
            make_baseline_design(cfg, cfg.system.num_subcarriers + 1, 0)


class TestRunDesign:
    def test_outputs_exist_and_load(self, tiny_cfg, tmp_path):
        paths = run_design(tiny_cfg, tmp_path / "out")
        design = load_design(paths["design"])
        assert design.allocation
        assert paths["trace"].exists()
        assert paths["summary"].exists()
        with open(paths["trace"]) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["iteration"] == "0"
        assert [r for r in rows if r["iteration"] == "40"]

    def test_zero_penalty_keeps_all_subcarriers(self, tmp_path):
        cfg_file = tmp_path / "l0.cfg"
        cfg_file.write_text("iterations = 40\nlambda_bar = 0.0\n")
        cfg = load_experiment_config("desk", cfg_file)
        paths = run_design(cfg, tmp_path / "out")
        design = load_design(paths["design"])
        assert design.allocation == tuple(range(cfg.system.num_subcarriers))


class TestRunEstimate:
    def test_outputs_and_determinism(self, tiny_cfg, tmp_path):
        d = run_design(tiny_cfg, tmp_path / "d")["design"]
        b = run_baseline(tiny_cfg, len(load_design(d).allocation),
                         tmp_path / "design_gauss_random.json")
        out1 = run_estimate(tiny_cfg, [d, b], tmp_path / "e1")
        out2 = run_estimate(tiny_cfg, [d, b], tmp_path / "e2")
        assert out1["trials"].read_bytes() == out2["trials"].read_bytes()
        assert out1["summary"].read_bytes() == out2["summary"].read_bytes()

    def test_summary_matches_trials_recomputation(self, tiny_cfg, tmp_path):
        d = run_design(tiny_cfg, tmp_path / "d")["design"]
        out = run_estimate(tiny_cfg, [d], tmp_path / "e")
        with open(out["trials"]) as fh:
            trials = list(csv.DictReader(fh))
        with open(out["summary"]) as fh:
            summary = list(csv.DictReader(fh))
        for row in summary:
            vals = [
                float(t["nmse"])
                for t in trials
                if t["method"] == row["method"] and t["snr_db"] == row["snr_db"]
            ]
            assert float(row["nmse_median"]) == np.median(vals)
            assert float(row["nmse_mean"]) == np.mean(vals)
            assert int(row["num_trials"]) == len(vals)

    def test_threaded_matches_sequential(self, tiny_cfg, tmp_path):
        d = run_design(tiny_cfg, tmp_path / "d")["design"]
        seq = run_estimate(tiny_cfg, [d], tmp_path / "s", threads=1)
        par = run_estimate(tiny_cfg, [d], tmp_path / "p", threads=2)
        assert seq["trials"].read_bytes() == par["trials"].read_bytes()

    def test_threaded_many_trials_match_sequential(self, tmp_path):
        # 16 trials x 3 SNRs of paper-size solves keep both pool threads in OMP
        # at once on one shared operator.
        path = tmp_path / "many.cfg"
        path.write_text("num_trials = 16\nsnr_db_list = 0, 10, 20\n")
        cfg = load_experiment_config("paper", path)
        d = run_baseline(cfg, 8, tmp_path / "design_b.json")
        seq = run_estimate(cfg, [d], tmp_path / "s", threads=1)
        par = run_estimate(cfg, [d], tmp_path / "p", threads=2)
        assert seq["trials"].read_bytes() == par["trials"].read_bytes()

    def test_memory_does_not_grow_with_trials(self, tmp_path):
        # Only running trials hold a channel (262 KiB each on paper), so ten
        # times the trials leaves the traced peak within 1 MiB.
        cfg = load_experiment_config("paper")
        design = run_baseline(cfg, 8, tmp_path / "design_b.json")

        def peak(num_trials):
            ev = replace(cfg.evaluation, snr_db_list=(10.0,), num_trials=num_trials)
            tracemalloc.start()
            try:
                run_estimate(replace(cfg, evaluation=ev), [design], tmp_path / f"e{num_trials}")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4)  # warm-up
        assert peak(40) - peak(4) <= 1 << 20

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failing_trial_stops_the_run(self, tmp_path, monkeypatch, threads):
        cfg = load_experiment_config("desk")
        cfg = replace(cfg, evaluation=replace(cfg.evaluation, num_trials=50))
        design = run_baseline(cfg, 8, tmp_path / "design_b.json")
        solve, calls = estimator.SOLVERS["omp"], itertools.count(1)

        def failing(*args):
            if next(calls) == 3:
                raise FloatingPointError("solve 3")
            return solve(*args)

        monkeypatch.setitem(estimator.SOLVERS, "omp", failing)
        with pytest.raises(FloatingPointError, match="solve 3"):
            run_estimate(cfg, [design], tmp_path / "e", threads=threads)
        assert next(calls) - 1 < 250 / 2  # 5 SNRs x 50 trials = 250 solves

    def test_output_bytes_do_not_depend_on_blas_thread_count(self, tmp_path):
        # Whole-array squared norms go through numpy's pairwise sum: OpenBLAS
        # splits its level-1 dot over threads above about 10 000 entries, and
        # paper pilot and channel arrays hold 16 384.
        cfg_path = tmp_path / "small.cfg"
        cfg_path.write_text("iterations = 20\nnum_trials = 2\nsnr_db_list = 10\n")
        digests = {}
        for threads in (1, 2):
            out = tmp_path / f"threads_{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
                   "PYTHONPATH": str(Path(harness.__file__).parents[1])}
            common = ["--profile", "paper", "--config", str(cfg_path)]
            for command in (
                ["design", *common, "--out", str(out / "design")],
                ["baseline", *common, "--target-q", "8", "--out", str(out / "design_b.json")],
                ["estimate", *common, "--designs", str(out / "design_b.json"), "--out", str(out / "estimate")],
            ):
                done = subprocess.run([sys.executable, "-m", "pilotopt.cli", *command],
                                      env=env, capture_output=True, text=True, timeout=300)
                assert done.returncode == 0, done.stderr[-2000:]
            digests[threads] = {
                path.relative_to(out): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in out.rglob("*") if path.is_file()
            }
        assert len(digests[1]) == 8  # design, trace, three report files, baseline, trials, summary
        assert digests[1] == digests[2]

    def test_mixed_allocation_sizes_guarded(self, tiny_cfg, tmp_path):
        d = run_design(tiny_cfg, tmp_path / "d")["design"]
        q = len(load_design(d).allocation)
        other = run_baseline(tiny_cfg, q - 2, tmp_path / "design_other.json")
        with pytest.raises(ConfigError, match="allocation sizes"):
            run_estimate(tiny_cfg, [d, other], tmp_path / "e")
        out = run_estimate(tiny_cfg, [d, other], tmp_path / "e", allow_mixed=True)
        assert out["trials"].exists()

    # ``report`` reads its design through the same checked loader as ``estimate``.
    @pytest.mark.parametrize(
        "command",
        [lambda cfg, path, out: run_estimate(cfg, [path], out), run_report],
        ids=["estimate", "report"],
    )
    @pytest.mark.parametrize(
        ("field", "system"),
        # A paper design differs from desk in K, Nt and M; K is checked first.
        [("K", None), ("K", {"num_subcarriers": 8}), ("Nt", {"num_tx": 4}),
         ("M", {"seq_len": 2}), ("Pt", {"total_power": 1024.0})],
        ids=["paper", "K", "Nt", "M", "Pt"],
    )
    def test_dimension_mismatch_rejected(self, tiny_cfg, tmp_path, command, field, system):
        if system is None:
            foreign_cfg = load_experiment_config("paper")
        else:
            foreign_cfg = replace(tiny_cfg, system=replace(tiny_cfg.system, **system))
        path = tmp_path / "design_foreign.json"
        save_design(make_baseline_design(foreign_cfg, 4, 0), path)
        with pytest.raises(ConfigError, match=f"^foreign: design {field} does not match"):
            command(tiny_cfg, path, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_duplicate_tags_rejected(self, tiny_cfg, tmp_path):
        d = run_design(tiny_cfg, tmp_path / "d")["design"]
        (tmp_path / "copy").mkdir()
        copy = tmp_path / "copy" / d.name
        copy.write_bytes(d.read_bytes())
        with pytest.raises(ConfigError, match="duplicate"):
            run_estimate(tiny_cfg, [d, copy], tmp_path / "e")

    def test_timing_column_optional(self, tiny_cfg, tmp_path):
        d = run_design(tiny_cfg, tmp_path / "d")["design"]
        out = run_estimate(tiny_cfg, [d], tmp_path / "e", timing=True)
        with open(out["trials"]) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["method", "snr_db", "trial_index", "seed", "nmse", "elapsed_ms"]


class TestRunReportAndGradcheck:
    def test_report_files(self, tiny_cfg, tmp_path):
        d = run_design(tiny_cfg, tmp_path / "d")["design"]
        paths = run_report(tiny_cfg, d, tmp_path / "r")
        summary = json.loads(paths["summary"].read_text())
        assert summary["welch_bound"] <= summary["mutual"] <= 1.0
        assert summary["N"] == tiny_cfg.system.num_rx * tiny_cfg.system.seq_len * len(
            load_design(d).allocation
        )
        with open(paths["inner"]) as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["kind"] == "inner_product" for r in rows)
        vals = [float(r["value"]) for r in rows]
        assert vals == sorted(vals)

    def test_report_matches_library_call(self, tiny_cfg, tmp_path):
        d_path = run_design(tiny_cfg, tmp_path / "d")["design"]
        paths = run_report(tiny_cfg, d_path, tmp_path / "r")
        summary = json.loads(paths["summary"].read_text())
        dicts = build_dictionaries(tiny_cfg.grids, tiny_cfg.system)
        report = coherence_report(load_design(d_path), dicts, tiny_cfg.optimizer.p)
        assert summary["mutual"] == report.mutual_coherence
        assert summary["generalized_p"] == report.generalized

    def test_gradcheck_passes(self, tiny_cfg):
        results = run_gradcheck(tiny_cfg)
        assert len(results) == 10
        assert all(r["ok"] for r in results)
        assert all(r["rel_err"] <= 1e-4 for r in results)


class TestRunSweep:
    def test_sweep_outputs(self, tiny_cfg, tmp_path):
        out = run_sweep(tiny_cfg, [0.0, 1.5], tmp_path / "s", target_q=16)
        with open(out["table"]) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert (tmp_path / "s" / row["design_file"]).exists()
        meta = json.loads((tmp_path / "s" / "sweep_summary.json").read_text())
        assert meta["selected"] in {row["design_file"] for row in rows}

    def test_coherence_is_each_design_reports_mutual(self, tiny_cfg, tmp_path):
        run_sweep(tiny_cfg, [0.0, 1.5, 3.0], tmp_path / "s")
        dicts = build_dictionaries(tiny_cfg.grids, tiny_cfg.system)
        with open(tmp_path / "s" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows:
            design = load_design(tmp_path / "s" / row["design_file"])
            report = coherence_report(design, dicts, tiny_cfg.optimizer.p)
            assert float(row["mutual_coherence"]) == report.mutual_coherence

    def test_empty_list_rejected(self, tiny_cfg, tmp_path):
        with pytest.raises(ValueError):
            run_sweep(tiny_cfg, [], tmp_path / "s")

    def test_single_value_gives_single_row(self, tiny_cfg, tmp_path):
        out = run_sweep(tiny_cfg, [1.5], tmp_path / "s")
        assert len(out["rows"]) == 1
        assert out["rows"][0][0] == 1.5
        assert out["selected"] is None
        meta = json.loads((tmp_path / "s" / "sweep_summary.json").read_text())
        assert meta["selected"] is None

    def test_target_selection_prefers_closest_q(self, tiny_cfg, tmp_path):
        out = run_sweep(tiny_cfg, [0.0, 0.5], tmp_path / "s", target_q=8)
        rows = out["rows"]
        best = min(range(len(rows)), key=lambda i: (abs(rows[i][1] - 8), rows[i][2]))
        assert out["selected"] == best
        meta = json.loads((tmp_path / "s" / "sweep_summary.json").read_text())
        assert meta["selected"] == rows[best][3]


def _oracle_bytes(tmp_path, header, rows):
    path = tmp_path / "oracle.csv"
    write_csv_rows(path, header, rows)
    return path.read_bytes()


# Values a CSV field is drawn from, in runs; "-nan" differs from nan only in its sign bit.
_CSV_POOLS = {
    "float": [0.0, -0.0, float("nan"), -float("nan"), float("inf"), float("-inf"), 5e-324, 0.1,
              1e16],
    "int": [0, 1, -7, 2**63 - 1, 2**64 + 5, 10**30],
    "text": ["", 'a,"b"', "two\nlines", " padded ", "x", "{0}", "}{"],
}


def _lazy_rows(kind, values):
    """``(kind, float(v))`` for each of ``values``, one row at a time."""
    return zip(itertools.repeat(kind), map(float, values))


class TestCsvWriter:
    """The table and CDF writers against the row-wise csv.writer route, byte for byte."""

    def _check(self, tmp_path, header, rows):
        # The writer reads ``rows`` through a generator; the oracle gets each float's repr.
        path = tmp_path / "out.csv"
        harness._write_csv(path, header, (row for row in rows))
        expected = [[repr(v) if type(v) is float else v for v in row] for row in rows]
        assert path.read_bytes() == _oracle_bytes(tmp_path, header, expected)

    def test_trace_matches_row_route(self, tiny_cfg, tmp_path):
        dicts = build_dictionaries(tiny_cfg.grids, tiny_cfg.system)
        x0 = gaussian_init(16, 8, 4, 0)
        _, trace = optimize(x0, dicts, tiny_cfg.optimizer, tiny_cfg.system.total_power)
        rows = [[it, *map(repr, values)] for it, *values in trace]
        harness.save_trace(trace, tmp_path / "trace.csv")
        header = ["iteration", "loss", "f_term", "g_term", "grad_norm"]
        assert (tmp_path / "trace.csv").read_bytes() == _oracle_bytes(tmp_path, header, rows)
        with open(tmp_path / "trace.csv") as fh:
            assert fh.readline() == ",".join(TraceRecord._fields) + "\n"

    def test_report_cdfs_match_row_route(self, tiny_cfg, tmp_path):
        d = run_design(tiny_cfg, tmp_path / "d")["design"]
        dicts = build_dictionaries(tiny_cfg.grids, tiny_cfg.system)
        report = coherence_report(load_design(d), dicts, tiny_cfg.optimizer.p)
        paths = harness.save_report(report, tmp_path / "r", stem="x")
        for key, kind, runs in (("inner", "inner_product", report.inner_product_runs),
                                ("norm", "column_norm", report.column_norm_runs)):
            rows = [(kind, repr(float(v))) for v in expand_runs(runs)]
            assert paths[key].read_bytes() == _oracle_bytes(tmp_path, ["kind", "value"], rows)

    def test_estimate_tables_match_row_route(self, tiny_cfg, tmp_path, monkeypatch):
        d = run_design(tiny_cfg, tmp_path / "d")["design"]
        b = run_baseline(tiny_cfg, len(load_design(d).allocation), tmp_path / "design_b.json")
        # A clock reading (c/8)² at its c-th call: cell c of the one-thread run,
        # trial by trial, takes calls 2c and 2c + 1.
        ticks = itertools.count()
        monkeypatch.setattr(harness, "time",
                            SimpleNamespace(perf_counter=lambda: (next(ticks) / 8) ** 2))
        out = run_estimate(tiny_cfg, [d, b], tmp_path / "e")
        timed = run_estimate(tiny_cfg, [d, b], tmp_path / "t", timing=True)
        snrs = tiny_cfg.evaluation.snr_db_list
        nmse_values = out["nmse"]
        assert np.array_equal(timed["nmse"], nmse_values)
        trial_rows = [
            [out["methods"][i], repr(float(snrs[j])), t, tiny_cfg.base_seed + t,
             repr(float(nmse_values[i, j, t]))]
            for i, j, t in np.ndindex(nmse_values.shape)
        ]
        header = ["method", "snr_db", "trial_index", "seed", "nmse"]
        assert out["trials"].read_bytes() == _oracle_bytes(tmp_path, header, trial_rows)
        n_methods, n_snrs, _ = nmse_values.shape
        first = 2 * nmse_values.size  # the clock calls of the untimed run come first
        for row, (i, j, t) in zip(trial_rows, np.ndindex(nmse_values.shape)):
            c = first + 2 * ((t * n_methods + i) * n_snrs + j)
            row.append(repr((((c + 1) / 8) ** 2 - (c / 8) ** 2) * 1e3))
        assert timed["trials"].read_bytes() == _oracle_bytes(
            tmp_path, [*header, "elapsed_ms"], trial_rows)
        medians = np.median(nmse_values, axis=2)
        means = np.mean(nmse_values, axis=2)
        summary_rows = [
            [out["methods"][i], repr(float(snrs[j])), tiny_cfg.evaluation.num_trials,
             repr(float(medians[i, j])), repr(float(means[i, j]))]
            for i, j in np.ndindex(medians.shape)
        ]
        header = ["method", "snr_db", "num_trials", "nmse_median", "nmse_mean"]
        assert out["summary"].read_bytes() == _oracle_bytes(tmp_path, header, summary_rows)
        assert timed["summary"].read_bytes() == out["summary"].read_bytes()

    def test_large_base_seed_written_exactly(self, tiny_cfg, tmp_path):
        cfg = replace(tiny_cfg, base_seed=2**64 + 3)
        b = run_baseline(cfg, 4, tmp_path / "design_b.json")
        out = run_estimate(cfg, [b], tmp_path / "e")
        with open(out["trials"], newline="") as fh:
            seeds = [int(r["seed"]) for r in csv.DictReader(fh)]
        assert seeds == [2**64 + 3 + t for t in range(cfg.evaluation.num_trials)]

    def test_sweep_table_matches_row_route(self, tiny_cfg, tmp_path):
        out = run_sweep(tiny_cfg, [0.0, 1.5], tmp_path / "s")
        rows = [[repr(lam), q, repr(float(mu)), name] for lam, q, mu, name in out["rows"]]
        header = ["lambda_bar", "allocation_size", "mutual_coherence", "design_file"]
        assert out["table"].read_bytes() == _oracle_bytes(tmp_path, header, rows)

    def test_empty_columns_write_header_only(self, tmp_path):
        self._check(tmp_path, ["kind", "value"], [])
        self._check(tmp_path, ["a"], [])

    def test_float_edge_values(self, tmp_path):
        values = [0.0, -0.0, 5e-324, 1e-05, 0.1 + 0.2, 1e16, 1e22, 1.0 / 3.0,
                  float(np.nextafter(1.0, 2.0)), -1.5e-300, np.inf, -np.inf, np.nan]
        self._check(tmp_path, ["kind", "value"], [("v", v) for v in values])
        self._check(tmp_path, ["value"], [[v] for v in values])

    def test_large_int_seeds(self, tmp_path):
        seeds = [0, 7, 2**63 - 1, 2**63, 2**64 + 5, 10**30]
        self._check(tmp_path, ["trial", "seed"], [[t, s] for t, s in enumerate(seeds)])
        self._check(tmp_path, ["seed", "trial"], [[s, t] for t, s in enumerate(seeds)])

    def test_text_quoting(self, tmp_path):
        tags = ['a,"b"', "plain", "", 'say "hi"', "two\nlines", "cr\rhere", " padded ", "x;y"]
        nums = [i / 7.0 for i in range(len(tags))]
        self._check(tmp_path, ["method", "nmse"], [[t, v] for t, v in zip(tags, nums)])
        self._check(tmp_path, ["nmse", "file"], [[v, t] for t, v in zip(tags, nums)])
        # One tag on every row: braces stay literal, and a lone empty field is still "".
        for tag in ("{0}", "}{", 'a,"{b}"', ""):
            self._check(tmp_path, ["method", "nmse"], [[tag, v] for v in nums])
        self._check(tmp_path, ["method"], [[""]] * 3)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_boundary(self, tmp_path, offset):
        # The CDF writer's runs at its chunk edge: one row per value, and a last run of 3.
        n = harness._CSV_CHUNK + offset
        values = np.sort(np.random.default_rng(offset + 1).random(n))
        counts = np.ones(n, dtype=np.int64)
        counts[-1] = 3
        path = tmp_path / "cdf.csv"
        harness._write_cdf(path, "inner_product", (values, counts))
        rows = [("inner_product", repr(float(v))) for v in expand_runs((values, counts))]
        assert path.read_bytes() == _oracle_bytes(tmp_path, ["kind", "value"], rows)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_runs_match_row_route(self, tmp_path, data):
        n = data.draw(st.integers(0, 40))
        rows = [[] for _ in range(n)]
        # A lone text field is drawn often: csv writes its empty field as "". With
        # 200 examples the mixed draws stay at least as many as 100 plain draws gave.
        kinds = data.draw(st.just(["text"])
                          | st.lists(st.sampled_from(sorted(_CSV_POOLS)), min_size=1, max_size=4))
        for kind in kinds:
            pool = _CSV_POOLS[kind]
            if data.draw(st.booleans()):  # one value on every row
                values = [data.draw(st.sampled_from(pool))] * n
            else:
                values = []
                while len(values) < n:
                    values += [data.draw(st.sampled_from(pool))] * data.draw(st.integers(1, 9))
            for row, v in zip(rows, values):
                row.append(v)
        self._check(tmp_path, [f"c{i}" for i in range(len(kinds))], rows)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_cdf_runs_match_row_route(self, tmp_path, monkeypatch, data):
        monkeypatch.setattr(harness, "_CSV_CHUNK", data.draw(st.integers(1, 7)))
        values = sorted(data.draw(st.lists(st.sampled_from(_CSV_POOLS["float"]), max_size=40)))
        counts = data.draw(st.lists(st.integers(1, 9), min_size=len(values), max_size=len(values)))
        path = tmp_path / "cdf.csv"
        harness._write_cdf(path, "inner_product", (np.asarray(values), np.asarray(counts)))
        rows = [("inner_product", repr(v)) for v, c in zip(values, counts) for _ in range(c)]
        assert path.read_bytes() == _oracle_bytes(tmp_path, ["kind", "value"], rows)

    @staticmethod
    def _cdf_values():
        # About 300 k sorted values in runs of 1 to 29, as in a report CDF.
        distinct = np.random.default_rng(0).random(20_000)
        return np.sort(np.repeat(distinct, np.arange(distinct.size) % 29 + 1))

    def test_paper_report_cdfs_match_row_route(self, tmp_path, paper_baseline):
        # The full 2.1 M-row inner-product CDF takes seconds through the row route;
        # a 131 072-row slice keeps its runs of 1 to 32 rows, many across chunk edges.
        dicts, design = paper_baseline
        report = coherence_report(design, dicts, 4)
        inner, norms = expand_runs(report.inner_product_runs), expand_runs(report.column_norm_runs)
        part = inner[1_000_003:1_000_003 + (1 << 17)]
        edges = np.arange(harness._CSV_CHUNK, part.size, harness._CSV_CHUNK)
        assert np.any(part[edges] == part[edges - 1])
        for kind, values in (("inner_product", part), ("column_norm", norms)):
            self._check(tmp_path, ["kind", "value"], [(kind, float(v)) for v in values])
        # The whole files, written from the runs, against the expanded arrays' rows.
        paths = harness.save_report(report, tmp_path / "r")
        for key, kind, values in (("inner", "inner_product", inner), ("norm", "column_norm", norms)):
            expanded = tmp_path / f"{key}.csv"
            harness._write_csv(expanded, ["kind", "value"], _lazy_rows(kind, values))
            assert paths[key].read_bytes() == expanded.read_bytes()

    def test_each_run_formatted_once(self, tmp_path, monkeypatch):
        # The CDF writer formats one line per (value, count) run, never one per row.
        values = self._cdf_values()
        distinct, counts = np.unique(values, return_counts=True)
        lines = []

        def runs(fh, run_lines, ends):
            lines.extend(run_lines)
            write_runs(fh, run_lines, ends)

        write_runs = harness._write_runs
        monkeypatch.setattr(harness, "_write_runs", runs)
        harness._write_cdf(tmp_path / "runs.csv", "inner_product", (distinct, counts))
        assert len(lines) == distinct.size
        harness._write_csv(tmp_path / "rows.csv", ["kind", "value"],
                           _lazy_rows("inner_product", values))
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "runs.csv").read_bytes()

    def test_memory_bounded_by_one_chunk(self, tmp_path):
        # 300 k rows from a generator: the writer holds one row at a time.
        values = self._cdf_values()
        path = tmp_path / "cdf.csv"
        tracemalloc.start()
        try:
            harness._write_csv(path, ["kind", "value"], _lazy_rows("inner_product", values))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 8_000_000
        assert peak <= 1 << 20

    def test_memory_bounded_under_repeats(self, tmp_path, paper_baseline):
        # Lines are written at most one chunk at a time, however many rows a value spans.
        report = coherence_report(paper_baseline[1], paper_baseline[0], 4)
        cases = {
            "one_row": lambda path: harness._write_cdf(
                path, "k", (np.asarray([0.5]), np.asarray([10**6]))),
            "wide_runs": lambda path: harness._write_cdf(
                path, "k", (np.arange(1024) / 7, np.full(1024, 2048))),
            "paper_report": lambda path: harness.save_report(report, path),
        }
        for name, write in cases.items():
            tracemalloc.start()
            try:
                write(tmp_path / name)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1 << 20, name

    def test_memory_bounded_when_rows_differ(self, tmp_path):
        # A 2 000-iteration trace: no two rows are equal, so every row is formatted.
        rng = np.random.default_rng(0)
        trace = [TraceRecord(i, *values) for i, values in enumerate(rng.random((2000, 4)).tolist())]
        tracemalloc.start()
        try:
            harness.save_trace(trace, tmp_path / "trace.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 19

    def test_quoted_method_tag_reads_back(self, tiny_cfg, tmp_path):
        d = run_design(tiny_cfg, tmp_path / "d")["design"]
        tagged = tmp_path / 'design_a,"b".json'
        tagged.write_bytes(d.read_bytes())
        out = run_estimate(tiny_cfg, [tagged], tmp_path / "e")
        for key in ("trials", "summary"):
            with open(out[key], newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert rows and all(r["method"] == 'a,"b"' for r in rows)
        assert out["trials"].read_text().splitlines()[1].startswith('"a,""b""",')


class TestBootstrapCI:
    def test_clear_separation_excludes_zero(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.5, 0.05, 200)
        b = rng.normal(1.0, 0.05, 200)
        lo, hi = median_difference_ci(a, b, n_boot=500, seed=1)
        assert hi < 0.0

    def test_identical_samples_straddle_zero(self):
        rng = np.random.default_rng(1)
        a = rng.normal(1.0, 0.2, 200)
        lo, hi = median_difference_ci(a, a.copy(), n_boot=500, seed=2)
        assert lo <= 0.0 <= hi

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            median_difference_ci([1.0, 2.0], [1.0], n_boot=10)


class TestCli:
    def test_full_pipeline(self, tmp_path):
        cfg_file = tmp_path / "tiny.cfg"
        cfg_file.write_text(TINY_OVERRIDES)
        base = ["--profile", "desk", "--config", str(cfg_file)]
        assert main(["design", *base, "--out", str(tmp_path / "d")]) == 0
        design = tmp_path / "d" / "design_optimized.json"
        assert (
            main(
                ["baseline", *base, "--match-design", str(design),
                 "--out", str(tmp_path / "design_gauss_random.json")]
            )
            == 0
        )
        assert (
            main(
                ["estimate", *base, "--out", str(tmp_path / "e"),
                 "--designs", str(design), str(tmp_path / "design_gauss_random.json")]
            )
            == 0
        )
        assert (tmp_path / "e" / "trials.csv").exists()
        assert (tmp_path / "e" / "summary.csv").exists()
        assert main(["report", *base, "--design", str(design), "--out", str(tmp_path / "r")]) == 0
        assert main(["gradcheck", *base]) == 0

    def test_gradcheck_mismatch_reports_every_pair(self, monkeypatch, capsys):
        # A finite but wrong gradient is a failed check, not a numerical error.
        original = harness.loss_and_gradient

        def doubled(*args):
            loss, grad = original(*args)
            return loss, 2.0 * grad

        monkeypatch.setattr(harness, "loss_and_gradient", doubled)
        assert main(["gradcheck", "--profile", "desk"]) == 3
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 11 and all(line.endswith("[FAIL]") for line in lines[:10])
        assert lines[10] == "10/10 gradient checks failed" and not captured.err

    def test_design_at_large_p(self, tmp_path):
        # |c|^p of the unscaled Gram rows overflows at this p; the loss does not.
        cfg_file = tmp_path / "large_p.cfg"
        cfg_file.write_text("p = 1000\niterations = 5\n")
        out = tmp_path / "d"
        assert main(["design", "--profile", "desk", "--config", str(cfg_file), "--out", str(out)]) == 0
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["iteration"]) for row in rows] == list(range(6))
        assert all(np.isfinite(float(v)) for row in rows for v in row.values())

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mystery = 1\n")
        rc = main(["design", "--profile", "desk", "--config", str(bad),
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_missing_config_exit_code(self, tmp_path):
        rc = main(["design", "--profile", "desk", "--config", str(tmp_path / "none.cfg"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["design"])
    def test_zero_trace_every_exit_code(self, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(tmp_path / "x"), "--trace-every", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads_exit_code(self, tmp_path, threads):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--out", str(tmp_path / "e"), "--designs", "d.json",
                  "--threads", threads])
        assert exc.value.code == 2

    @pytest.mark.parametrize("lambdas", [",,", "-1", "0.7,-1", "nan", "inf", "soon"])
    def test_bad_lambdas_exit_code(self, tmp_path, lambdas):
        with pytest.raises(SystemExit) as exc:
            main(["sweep-lambda", "--out", str(tmp_path / "s"), "--lambdas", lambdas])
        assert exc.value.code == 2
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("source", ["paper", "desk_other_pt"])
    def test_match_design_from_another_config_exit_code(self, tmp_path, capsys, source):
        # --match-design reads its design through the same check as report and estimate.
        cfg = load_experiment_config("paper" if source == "paper" else "desk")
        if source == "desk_other_pt":
            cfg = replace(cfg, system=replace(cfg.system, total_power=256.0))
        design = tmp_path / "design_src.json"
        save_design(make_baseline_design(cfg, 8, 0), design)
        out = tmp_path / "b" / "design_b.json"
        assert main(["baseline", "--profile", "desk", "--match-design", str(design),
                     "--out", str(out)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("target_q", ["0", "99"])
    def test_out_of_range_target_q_exit_code(self, tmp_path, target_q):
        out = tmp_path / "b.json"
        assert main(["baseline", "--target-q", target_q, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("target_q", ["-5", "0", "K+1"])
    def test_out_of_range_sweep_target_q_exit_code(self, tmp_path, capsys, target_q):
        k = load_experiment_config("desk").system.num_subcarriers
        target_q = target_q.replace("K+1", str(k + 1))
        out = tmp_path / "s"
        assert main(["sweep-lambda", "--profile", "desk", "--out", str(out), "--lambdas", "0.7",
                     "--target-q", target_q]) == 2
        assert f"allocation size {target_q} out of range 1..{k}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override",
        ["lambda_bar = nan", "zero_threshold_rel = nan", "total_power = nan",
         "total_power = inf", "rician_k_db = nan", "rician_k_db = inf", "learning_rate = nan",
         "eps = nan", "bandwidth_hz = inf"],
    )
    def test_non_finite_config_float_exit_code(self, tmp_path, override):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"iterations = 1\n{override}\n")
        rc = main(["design", "--config", str(cfg_file), "--out", str(tmp_path / "d")])
        assert rc == 2
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "override",
        ["g_tau = 1", "max_sparsity = 100000", "snr_db_list = nan", "snr_db_list = 10, 10",
         "rician_k_db = 3090", "rician_k_db = -3090",
         # 2 grid atoms against 64 observations: OMP cannot pick a third distinct atom.
         "g_theta = 1\ng_phi = 1\ng_tau = 2\nmax_sparsity = 3",
         # Dictionary phases that overflow: k * B at k = 15 (also at 1.2e307),
         # max_delay_s, max_delay_s * (g_tau - 1), and 2 pi * spacing.
         "bandwidth_hz = 2e307", "bandwidth_hz = 1.2e307", "bandwidth_hz = 1e-310",
         "bandwidth_hz = 1e-307", "tx_spacing_wavelengths = 1e308",
         "rx_spacing_wavelengths = 1e308"],
    )
    def test_invalid_config_value_exit_code(self, tmp_path, override):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(TINY_OVERRIDES + override + "\n")
        design = tmp_path / "design_gauss.json"
        save_design(make_baseline_design(load_experiment_config("desk"), 4, 0), design)
        rc = main(["estimate", "--config", str(cfg_file), "--out", str(tmp_path / "e"),
                   "--designs", str(design)])
        assert rc == 2
        assert not (tmp_path / "e" / "trials.csv").exists()

    @pytest.mark.parametrize(
        "override", ["rician_k_db = 3080", "rician_k_db = -3080",
                     "g_theta = 1\ng_phi = 1\ng_tau = 2\nmax_sparsity = 2",
                     "bandwidth_hz = 1e300", "bandwidth_hz = 1.1e307", "bandwidth_hz = 1e-300",
                     "rx_spacing_wavelengths = 1e200"],
    )
    def test_config_value_at_its_limit_exit_code(self, tmp_path, override):
        cfg_file = tmp_path / "edge.cfg"
        cfg_file.write_text(TINY_OVERRIDES + override + "\n")
        design = tmp_path / "design_gauss.json"
        save_design(make_baseline_design(load_experiment_config("desk"), 4, 0), design)
        rc = main(["estimate", "--config", str(cfg_file), "--out", str(tmp_path / "e"),
                   "--designs", str(design)])
        assert rc == 0
        assert (tmp_path / "e" / "trials.csv").exists()

    @pytest.mark.parametrize(
        ("override", "total_power", "code"),
        [("bandwidth_hz = 2e307", 512.0, 2), ("tx_spacing_wavelengths = 1e308", 512.0, 2)],
    )
    def test_report_overflow_exit_code(self, tmp_path, override, total_power, code):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(override + "\n")
        desk = load_experiment_config("desk")
        cfg = replace(desk, system=replace(desk.system, total_power=total_power))
        design = tmp_path / "design_gauss.json"
        save_design(make_baseline_design(cfg, 4, 0), design)
        out = tmp_path / "r"
        rc = main(["report", "--config", str(cfg_file), "--design", str(design), "--out", str(out)])
        assert rc == code
        summaries = list(out.glob("*_coherence_summary.json"))
        assert len(summaries) == (code == 0)
        assert all("NaN" not in path.read_text() for path in summaries)

    @pytest.mark.parametrize("command", [["design"], ["sweep-lambda", "--lambdas", "0,1.5"]],
                             ids=["design", "sweep-lambda"])
    def test_failing_report_leaves_no_design(self, tmp_path, monkeypatch, command):
        # The design's own report fails after the loop has run, so the command
        # exits 3 before writing a file. No config reaches an overflowing
        # report since total_power has an upper limit, so the report fails here
        # as it did for an overflowing Omega Gram.
        def failing_report(*args):
            raise DegenerateInputError("the normalized Omega or A_r Gram has a non-finite entry")

        monkeypatch.setattr(harness, "coherence_report", failing_report)
        cfg_file = tmp_path / "short.cfg"
        cfg_file.write_text("iterations = 3\n")
        out = tmp_path / "out"
        assert main([*command, "--config", str(cfg_file), "--out", str(out)]) == 3
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(("total_power", "code"), [("1e300", 0), ("1.7e308", 2)])
    def test_total_power_limit_through_every_command(self, tmp_path, monkeypatch, capsys,
                                                      total_power, code):
        # The limit, float max / (2^10 Nr Nt), is about 5.5e303 on desk; below
        # it every command runs, above it every command refuses the config.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "power.cfg").write_text(
            f"iterations = 3\nnum_trials = 2\ntotal_power = {total_power}\n")
        commands = [["baseline", "--target-q", "4", "--out", "design_b.json"],
                    ["design", "--out", "d"],
                    ["estimate", "--designs", "design_b.json", "--out", "e"],
                    ["report", "--design", "design_b.json", "--out", "r"],
                    ["sweep-lambda", "--lambdas", "0,1.5", "--out", "s"], ["gradcheck"]]
        for command in commands:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([*command, "--profile", "desk", "--config", "power.cfg"]) == code
            err = capsys.readouterr().err
            assert err.count("total_power must be at most") == (code == 2), command[0]
        outputs = [path for path in tmp_path.rglob("*") if path.suffix in (".csv", ".json")]
        assert len(outputs) == (15 if code == 0 else 0)
        assert not [path for path in outputs if re.search("nan|inf", path.read_text(), re.I)]

    @pytest.mark.parametrize("q", ["1e-10", "1e-310"])
    def test_failing_sweep_run_leaves_no_design(self, tmp_path, q):
        # The lambda_bar = 0 run succeeds; the penalty of the 1.5 run overflows at this q.
        cfg_file = tmp_path / "tiny_q.cfg"
        cfg_file.write_text(f"iterations = 3\nq = {q}\n")
        out = tmp_path / "out"
        assert main(["sweep-lambda", "--config", str(cfg_file), "--lambdas", "0,1.5",
                     "--out", str(out)]) == 3
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("lambda_bar", ["1e160", "1e200"])
    def test_overflowing_squared_gradient_exit_code(self, tmp_path, capsys, lambda_bar):
        # The gradient is finite, but |grad|^2 overflows: Adam would divide by inf
        # and never move, so the run is a numerical failure.
        cfg_file = tmp_path / "huge_lambda.cfg"
        cfg_file.write_text(f"iterations = 3\nlambda_bar = {lambda_bar}\n")
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfg_file), "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: iteration 0: squared gradient norm is not finite"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("total_power", ["1e-310", "1e-320"])
    def test_estimate_at_tiny_total_power(self, tmp_path, total_power):
        # 1 / rho^2 of the first OMP column overflows; the solve goes to lstsq.
        cfg_file = tmp_path / "tiny_power.cfg"
        cfg_file.write_text(f"num_trials = 2\ntotal_power = {total_power}\n")
        desk = load_experiment_config("desk")
        cfg = replace(desk, system=replace(desk.system, total_power=float(total_power)))
        design = tmp_path / "design_gauss.json"
        save_design(make_baseline_design(cfg, 4, 0), design)
        out = tmp_path / "e"
        assert main(["estimate", "--config", str(cfg_file), "--out", str(out),
                     "--designs", str(design)]) == 0
        with open(out / "summary.csv", newline="") as fh:
            medians = [float(row["nmse_median"]) for row in csv.DictReader(fh)]
        assert medians and all(0.0 < value < 1.0 for value in medians)

    def test_scaled_design_below_unit_power_refused(self, tmp_path, capsys):
        # Below Pt = 1 the power check stays relative: a design whose pilots are
        # scaled by 30 carries 900 times its declared Pt and is refused.
        cfg_file = tmp_path / "small_power.cfg"
        cfg_file.write_text("total_power = 1e-12\nnum_trials = 20\n")
        design = tmp_path / "design_gauss.json"
        argv = ["--config", str(cfg_file)]
        assert main(["baseline", *argv, "--target-q", "4", "--out", str(design)]) == 0
        payload = json.loads(design.read_text())
        for key in ("x_real", "x_imag"):
            payload[key] = [[30.0 * v for v in row] for row in payload[key]]
        design.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="stored power"):
            load_design(design)
        capsys.readouterr()
        for command, extra in (("report", "--design"), ("estimate", "--designs")):
            out = tmp_path / command
            assert main([command, *argv, "--out", str(out), extra, str(design)]) == 2
            assert len(capsys.readouterr().err.splitlines()) == 1
            assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        ("snr", "total_power", "code"),
        [("4000", 512.0, 2), ("1e308", 512.0, 2), ("-1e308", 512.0, 2), ("-3060", 512.0, 3),
         ("-3080", 512.0, 3), ("-3000", 1e300, 3), ("3080", 512.0, 0), ("-3080", 1.0, 3),
         ("-3080", 1e-320, 3)],
    )
    def test_extreme_snr_exit_code(self, tmp_path, snr, total_power, code):
        # 10^(snr/10) must be a finite, nonzero float; a measurement whose
        # norm overflows is a numerical failure, not an all-1.0 NMSE table,
        # and so is an NMSE that overflows (at a small Pt), not an inf one.
        cfg_file = tmp_path / "snr.cfg"
        cfg_file.write_text(f"num_trials = 2\ntotal_power = {total_power}\nsnr_db_list = {snr}\n")
        desk = load_experiment_config("desk")
        cfg = replace(desk, system=replace(desk.system, total_power=total_power))
        design = tmp_path / "design_gauss.json"
        save_design(make_baseline_design(cfg, 4, 0), design)
        rc = main(["estimate", "--config", str(cfg_file), "--out", str(tmp_path / "e"),
                   "--designs", str(design)])
        assert rc == code
        assert (tmp_path / "e" / "trials.csv").exists() == (code == 0)

    @pytest.mark.parametrize("command", ["design", "baseline", "estimate", "report"])
    def test_out_through_existing_file_exit_code(self, tmp_path, command):
        cfg_file = tmp_path / "tiny.cfg"
        cfg_file.write_text(TINY_OVERRIDES)
        design = tmp_path / "design_gauss.json"
        save_design(make_baseline_design(load_experiment_config("desk"), 4, 0), design)
        blocker = tmp_path / "blocker"
        blocker.write_text("keep")
        # baseline's --out is a file, so its directory is the existing file
        out = blocker / "design_b.json" if command == "baseline" else blocker
        extra = {"design": [], "baseline": ["--target-q", "4"],
                 "estimate": ["--designs", str(design)], "report": ["--design", str(design)]}
        rc = main([command, "--config", str(cfg_file), "--out", str(out), *extra[command]])
        assert rc == 2
        assert blocker.read_text() == "keep"

    def test_estimate_out_through_existing_file_fails_before_any_trial(self, tmp_path,
                                                                      monkeypatch):
        calls = []
        synthesize = harness.synthesize_measurement
        monkeypatch.setattr(harness, "synthesize_measurement",
                            lambda *args: calls.append(1) or synthesize(*args))
        cfg_file = tmp_path / "tiny.cfg"
        cfg_file.write_text(TINY_OVERRIDES)
        design = tmp_path / "design_gauss.json"
        save_design(make_baseline_design(load_experiment_config("desk"), 4, 0), design)
        blocker = tmp_path / "blocker"
        blocker.write_text("keep")
        rc = main(["estimate", "--config", str(cfg_file), "--out", str(blocker / "e"),
                   "--designs", str(design)])
        assert rc == 2
        assert calls == []

    def test_baseline_out_naming_directory_exit_code(self, tmp_path):
        assert main(["baseline", "--target-q", "4", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("seed_args", [["--seed", "-1"], ["--config", "seed.cfg"]])
    def test_negative_seed_exit_code(self, tmp_path, monkeypatch, seed_args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "seed.cfg").write_text("base_seed = -1\n")
        assert main(["gradcheck", *seed_args]) == 2

    def test_missing_design_exit_code(self, tmp_path):
        rc = main(["report", "--profile", "desk", "--design", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_sweep_command(self, tmp_path):
        cfg_file = tmp_path / "tiny.cfg"
        cfg_file.write_text(TINY_OVERRIDES)
        rc = main(["sweep-lambda", "--profile", "desk", "--config", str(cfg_file),
                   "--out", str(tmp_path / "s"), "--lambdas", "0.7,1.5"])
        assert rc == 0
        assert (tmp_path / "s" / "sweep.csv").exists()
