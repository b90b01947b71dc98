"""Every lookup site the benchmark's layer tracer wraps still exists.

perfbench/layertrace.py installs its wrappers by name on netadopt's
modules and strategy classes.  A renamed or folded function would make a
traced run fail there, outside this suite, so the names are checked here.
So is estimate's use of the engine's wrapped functions: it must reach them
through those module attributes once per replication, or the engine.* and
signals.* per-layer metrics read 0.  The tests only read perfbench/.
"""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from netadopt import engine, strategies
from netadopt.networks import build_star
from netadopt.signals import binary_model

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


@pytest.mark.parametrize("attr", ["run_profile", "sample_atoms"])
def test_estimate_reaches_each_engine_site_once_per_replication(attr,
                                                               monkeypatch):
    assert ("engine", attr) in {site[:2] for site in _layertrace()._FUNCTION_SITES}
    calls = []
    inner = getattr(engine, attr)

    def counting(*args, **kwargs):
        calls.append(attr)
        return inner(*args, **kwargs)

    monkeypatch.setattr(engine, attr, counting)
    model = binary_model(Fraction(3, 5))
    profile = {0: strategies.CenterBayesRule(model=model, period=1)}
    profile.update({i: strategies.myopic_rule(model) for i in range(1, 9)})
    engine.estimate(build_star(8), model, profile, 2, 0.5, 37, 1)
    assert len(calls) == 37
