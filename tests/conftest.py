import pytest

from pilotopt import build_dictionaries, load_experiment_config, make_baseline_design


@pytest.fixture(scope="session")
def paper_baseline():
    """Paper-profile dictionaries and a seeded Q = 9 baseline design."""
    cfg = load_experiment_config("paper")
    return build_dictionaries(cfg.grids, cfg.system), make_baseline_design(cfg, 9, 0)
