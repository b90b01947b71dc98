"""Every lookup site the benchmark's layer tracer wraps still exists.

perfbench/layertrace.py installs its wrappers by name on netadopt's
modules and strategy classes.  A renamed or folded function would make a
traced run fail there, outside this suite, so the names are checked here.
The test only reads perfbench/.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from netadopt import strategies

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_site_resolves():
    sites = _layertrace()._FUNCTION_SITES
    assert sites
    for module, attr, name in sites:
        owner = importlib.import_module(f"netadopt.{module}")
        assert callable(getattr(owner, attr, None)), (module, attr, name)


@pytest.mark.parametrize("name", _layertrace().REPORTED_STRATEGIES)
def test_every_reported_strategy_defines_adopt_probability(name):
    cls = getattr(strategies, name)
    assert issubclass(cls, strategies.Strategy)
    assert "adopt_probability" in vars(cls)
