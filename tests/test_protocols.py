"""Protocol contracts, checked on the real classes.

Both simulation engines call a noise model through ``factor``,
``factors`` and ``comm_factor``, and the DP vectorises over cost models'
``evaluate``.  Every override in the package must keep the base's
leading parameter names and which of them have defaults, may add only
parameters with defaults, and must leave base properties as properties.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.core.cost import BinaryCost, UnaryCost
from repro.sim.noise import NoiseModel

PROTOCOLS = {
    NoiseModel: ("factor", "factors", "comm_factor"),
    UnaryCost: ("evaluate",),
    BinaryCost: ("evaluate",),
}
_OPTIONAL = (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)


def contract_problems(base, cls):
    """Why ``cls`` is not a drop-in ``base``, one line per problem."""
    problems = []
    for name in PROTOCOLS[base]:
        if name not in vars(cls):
            continue
        want = list(inspect.signature(getattr(base, name)).parameters.values())
        have = list(inspect.signature(vars(cls)[name]).parameters.values())
        for b, h in zip(want, have):
            if (b.name, b.default is b.empty) != (h.name, h.default is h.empty):
                problems.append(f"{cls.__name__}.{name}: {h} where the base has {b}")
        problems += [
            f"{cls.__name__}.{name}: drops {b}" for b in want[len(have):]
        ] + [
            f"{cls.__name__}.{name}: adds required {h}" for h in have[len(want):]
            if h.default is h.empty and h.kind not in _OPTIONAL
        ]
    for name, attr in vars(base).items():
        if isinstance(attr, property) and not isinstance(vars(cls).get(name, attr), property):
            problems.append(f"{cls.__name__}.{name} is no longer a property")
    return problems


def _package_subclasses(base):
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    found, todo = [], list(base.__subclasses__())
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__module__.startswith("repro."):
            found.append(cls)
    return found


@pytest.mark.parametrize("base", list(PROTOCOLS), ids=lambda b: b.__name__)
def test_package_overrides_keep_the_protocol(base):
    subclasses = _package_subclasses(base)
    assert subclasses
    assert [p for cls in subclasses for p in contract_problems(base, cls)] == []


class _Renamed(UnaryCost):
    def evaluate(self, procs):
        return procs


class _ExtraRequired(BinaryCost):
    def evaluate(self, ps, pr, scale):
        return ps


class _DroppedDefault(NoiseModel):
    def factor(self, dataset):
        return 1.0


class _MethodNotProperty(NoiseModel):
    def deterministic(self):
        return True


class _ExtraOptional(NoiseModel):
    def factors(self, n, datasets=None, comm=None, scale=1.0):
        return super().factors(n)


@pytest.mark.parametrize("base, cls, expected", [
    (UnaryCost, _Renamed, "procs"),
    (BinaryCost, _ExtraRequired, "adds required scale"),
    (NoiseModel, _DroppedDefault, "dataset"),
    (NoiseModel, _MethodNotProperty, "deterministic is no longer a property"),
    (NoiseModel, _ExtraOptional, None),
], ids=["renamed", "added-required", "dropped-default", "property-to-method",
        "added-optional"])
def test_checker_reports_broken_overrides(base, cls, expected):
    problems = contract_problems(base, cls)
    if expected is None:
        assert problems == []
    else:
        assert len(problems) == 1 and expected in problems[0]
