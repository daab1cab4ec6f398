"""The package's public names are exactly what its modules declare in ``__all__``."""

import pilotopt
from pilotopt import channel, coherence, dictionary, errors, estimator, harness, optimizer

_MODULES = (channel, coherence, dictionary, errors, estimator, harness, optimizer)


def test_package_exports_each_modules_all_and_nothing_else():
    declared = {name for module in _MODULES for name in module.__all__}
    submodules = {module.__name__.rpartition(".")[2] for module in _MODULES}
    # pilotopt.cli joins the namespace once some test imports it; the package does not.
    public = {name for name in dir(pilotopt) if not name.startswith("_")} - {"cli"}
    assert public == declared | submodules
    assert len(declared) == 50 and len(public) == 57
