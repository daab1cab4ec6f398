"""The package's public names are exactly what its modules declare in ``__all__``."""

import ast
from pathlib import Path

import pilotopt
from pilotopt import channel, coherence, dictionary, errors, estimator, harness, optimizer

_MODULES = (channel, coherence, dictionary, errors, estimator, harness, optimizer)
_ROOT = Path(__file__).resolve().parents[1]


def test_package_exports_each_modules_all_and_nothing_else():
    declared = {name for module in _MODULES for name in module.__all__}
    submodules = {module.__name__.rpartition(".")[2] for module in _MODULES}
    # pilotopt.cli joins the namespace once some test imports it; the package does not.
    public = {name for name in dir(pilotopt) if not name.startswith("_")} - {"cli"}
    assert public == declared | submodules
    assert len(declared) == 48 and len(public) == 55


def test_every_public_name_has_a_reader_outside_the_tests():
    # A name that only tests read is a test oracle and belongs in tests/.
    read = set()
    for path in (*_ROOT.glob("src/pilotopt/*.py"), *_ROOT.glob("bench/*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    declared = {name for module in _MODULES for name in module.__all__}
    assert sorted(declared - read) == []
