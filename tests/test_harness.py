import csv
import json

import numpy as np
import pytest

from pilotopt import (
    ConfigError,
    build_dictionaries,
    coherence_report,
    load_design,
    load_experiment_config,
    make_baseline_design,
    run_baseline,
    run_design,
    run_estimate,
    run_gradcheck,
    run_report,
    run_sweep,
    save_design,
)
from pilotopt.cli import main

from oracles import median_difference_ci


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
        path.write_text("not_a_real_key = 1\n")
        with pytest.raises(ConfigError, match="not_a_real_key"):
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

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("\n# comment only\nnum_trials = 2  # trailing comment\n\n")
        assert load_experiment_config("desk", path).evaluation.num_trials == 2


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

    def test_mixed_allocation_sizes_guarded(self, tiny_cfg, tmp_path):
        d = run_design(tiny_cfg, tmp_path / "d")["design"]
        q = len(load_design(d).allocation)
        other = run_baseline(tiny_cfg, q - 2, tmp_path / "design_other.json")
        with pytest.raises(ConfigError, match="allocation sizes"):
            run_estimate(tiny_cfg, [d, other], tmp_path / "e")
        out = run_estimate(tiny_cfg, [d, other], tmp_path / "e", allow_mixed=True)
        assert out["trials"].exists()

    def test_dimension_mismatch_rejected(self, tiny_cfg, tmp_path):
        paper_cfg = load_experiment_config("paper")
        foreign = make_baseline_design(paper_cfg, 9, 0)
        path = tmp_path / "design_foreign.json"
        save_design(foreign, path)
        with pytest.raises(ConfigError):
            run_estimate(tiny_cfg, [path], tmp_path / "e")

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
        results = run_gradcheck(tiny_cfg, num_pairs=4)
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

    @pytest.mark.parametrize("target_q", ["0", "99"])
    def test_out_of_range_target_q_exit_code(self, tmp_path, target_q):
        out = tmp_path / "b.json"
        assert main(["baseline", "--target-q", target_q, "--out", str(out)]) == 2
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
        ["g_tau = 1", "max_sparsity = 100000", "snr_db_list = nan", "snr_db_list = 10, 10"],
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
