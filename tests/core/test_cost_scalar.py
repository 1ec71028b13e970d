"""A plain number is priced in float arithmetic with the array path's bits.

``UnaryCost.__call__`` and ``BinaryCost.__call__`` evaluate an ``int`` or
``float`` argument on Python floats; every other argument (numpy integers,
0-d and larger arrays) goes through numpy.  These tests pin that both give
the same ``float.hex`` on every model family and on the shipped workloads'
true cost models, that a model whose float arithmetic raises falls back to
numpy's answer, and that the scalar path warns no more than the array path.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    LambdaBinary,
    LambdaUnary,
    PolynomialEComm,
    PolynomialExec,
    PolynomialIComm,
    ScaledBinary,
    ScaledUnary,
    ScatteredBinary,
    SumUnary,
    TabulatedBinary,
    TabulatedUnary,
    ZeroBinary,
    ZeroUnary,
)
from repro.experiments.drift_study import study_chain
from repro.machine import presets
from repro.workloads import by_name, random_chain

#: Processor counts every unary model is priced at.
UNARY_P = [-1.0, 0.0, 0.5, *map(float, range(1, 65)), math.nan, math.inf]
#: A smaller set for the ``(ps, pr)`` grid of binary models.
BINARY_P = [-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 31.0, 64.0, math.nan, math.inf]


def _forms(v: float) -> list:
    """Every plain and numpy spelling of the processor count ``v``."""
    out = [v, np.float64(v), np.asarray(v)]
    if math.isfinite(v) and v == int(v):
        out += [int(v), np.int64(int(v))]
    if v in (0.0, 1.0):
        out.append(bool(v))
    return out


def _hex(x) -> str:
    return float(x).hex()


def assert_unary_scalar_matches(m) -> None:
    vec = m(np.array(UNARY_P))
    for i, v in enumerate(UNARY_P):
        want = _hex(m(np.asarray(v, dtype=float)))
        assert _hex(vec[i]) == want, (m, v)
        for x in _forms(v):
            got = m(x)
            assert type(got) is float, (m, x)
            assert got.hex() == want, (m, x, got, want)


def assert_binary_scalar_matches(m, vectorised: bool = True) -> None:
    a, b = np.meshgrid(BINARY_P, BINARY_P, indexing="ij")
    vec = m(a, b)
    for i, u in enumerate(BINARY_P):
        for j, v in enumerate(BINARY_P):
            want = _hex(m(np.asarray(u, dtype=float), np.asarray(v, dtype=float)))
            if vectorised:
                assert _hex(vec[i, j]) == want, (m, u, v)
            got = m(u, v)
            assert type(got) is float and got.hex() == want, (m, u, v)
    # Every spelling on either side, against a plain float, on a few points.
    for u, v in [(1.0, 1.0), (2.0, 5.0), (64.0, 3.0), (0.0, 4.0), (1.0, 0.0)]:
        want = _hex(m(np.asarray(u), np.asarray(v)))
        for x, y in [(x, v) for x in _forms(u)] + [(u, y) for y in _forms(v)]:
            assert _hex(m(x, y)) == want, (m, x, y)


# ---------------------------------------------------------------------------
# Every model family, coefficients drawn by hypothesis
# ---------------------------------------------------------------------------

coef = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.floats(min_value=1e-9, max_value=1e6),
)
sample_p = st.integers(min_value=1, max_value=64)
times = st.floats(min_value=0.0, max_value=1e3)


def poly_exec():
    return st.builds(PolynomialExec, coef, coef, coef)


def poly_icom():
    return st.builds(PolynomialIComm, coef, coef, coef)


def poly_ecom():
    return st.builds(PolynomialEComm, coef, coef, coef, coef, coef)


def tab_unary():
    return st.dictionaries(sample_p, times, min_size=1, max_size=8).map(TabulatedUnary)


@st.composite
def tab_binary(draw):
    ps = draw(st.lists(sample_p, min_size=1, max_size=4, unique=True))
    pr = draw(st.lists(sample_p, min_size=1, max_size=4, unique=True))
    return TabulatedBinary({(a, b): draw(times) for a in ps for b in pr})


def scattered(min_size, max_size):
    pts = st.tuples(sample_p, sample_p, times)
    return st.lists(pts, min_size=min_size, max_size=max_size).map(ScatteredBinary)


unary_leaf = st.one_of(poly_exec(), poly_icom(), tab_unary(), st.just(ZeroUnary()))
factor = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@given(m=st.one_of(poly_exec(), poly_icom()))
def test_polynomial_unary(m):
    assert_unary_scalar_matches(m)


@given(m=poly_ecom())
def test_polynomial_ecom(m):
    assert_binary_scalar_matches(m)


@given(m=tab_unary())
def test_tabulated_unary(m):
    assert_unary_scalar_matches(m)


@given(m=tab_binary())
def test_tabulated_binary(m):
    # Draws include 1-row, 1-column and 1x1 grids.
    assert_binary_scalar_matches(m)


@given(m=scattered(3, 8))
def test_scattered_linear(m):
    # A point on a shared triangle edge can come out 1 ulp apart in a
    # vectorised call, whose simplex search starts from the previous
    # point's triangle; one point at a time, both paths agree.
    assert_binary_scalar_matches(m, vectorised=False)


@given(m=scattered(1, 2))
def test_scattered_nearest(m):
    assert m._linear is None
    assert_binary_scalar_matches(m)


def test_zero_models():
    assert_unary_scalar_matches(ZeroUnary())
    assert_binary_scalar_matches(ZeroBinary())


@given(parts=st.lists(unary_leaf, max_size=4))
def test_sum_unary(parts):
    assert_unary_scalar_matches(SumUnary(parts))


def test_empty_sum_is_zero_or_inf():
    m = SumUnary([])
    assert m(3) == 0.0 and m(0.5) == math.inf
    assert_unary_scalar_matches(m)


@given(base=st.one_of(unary_leaf, st.lists(unary_leaf, max_size=3).map(SumUnary)), k=factor)
def test_scaled_unary(base, k):
    assert_unary_scalar_matches(ScaledUnary(base, k))


@given(base=st.one_of(poly_ecom(), tab_binary(), st.just(ZeroBinary())), k=factor)
def test_scaled_binary(base, k):
    assert_binary_scalar_matches(ScaledBinary(base, k))


# ---------------------------------------------------------------------------
# The shipped workloads' true chains (LambdaUnary / LambdaBinary models)
# ---------------------------------------------------------------------------

WORKLOADS = ["fft-hist-256", "fft-hist-512", "radar", "stereo", "airshed", "sar"]


def _shipped_chains():
    for machine in presets.PRESETS:
        for name in WORKLOADS:
            yield f"{name}@{machine}", by_name(name, presets.by_name(machine)).chain
    yield "drift-study", study_chain()
    yield "random-k5", random_chain(5, seed=3)


SHIPPED = list(_shipped_chains())


def _models(chain):
    unary = [t.exec_cost for t in chain.tasks] + [e.icom for e in chain.edges]
    return unary, [e.ecom for e in chain.edges]


@pytest.mark.parametrize("label,chain", SHIPPED, ids=[s[0] for s in SHIPPED])
def test_shipped_models(label, chain):
    unary, binary = _models(chain)
    for m in unary:
        assert_unary_scalar_matches(m)
    for m in binary:
        assert_binary_scalar_matches(m)


@pytest.mark.parametrize("label,chain", SHIPPED, ids=[s[0] for s in SHIPPED])
def test_shipped_models_scalar_calls_warn_nothing(label, chain):
    unary, binary = _models(chain)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in unary:
            for v in UNARY_P:
                m(v)
        for m in binary:
            for u in BINARY_P:
                for v in BINARY_P:
                    m(u, v)


# ---------------------------------------------------------------------------
# Models that fail on plain floats fall back to numpy's answer
# ---------------------------------------------------------------------------


def _same_as_array_path(call, *args):
    """``call(*args)`` and the 0-d array call agree in value and warnings."""
    with warnings.catch_warnings(record=True) as plain:
        warnings.simplefilter("always")
        got = call(*args)
    with warnings.catch_warnings(record=True) as arrays:
        warnings.simplefilter("always")
        want = call(*(np.asarray(a, dtype=float) for a in args))
    assert type(got) is float and got.hex() == float(want).hex()
    assert [w.category for w in plain] == [w.category for w in arrays]
    return got


def test_division_by_zero_falls_back():
    m = LambdaUnary(lambda p: 1.0 / (p - 1.0), "pole")
    assert _same_as_array_path(m, 1) == math.inf
    assert _same_as_array_path(m, 1.0) == math.inf
    assert _same_as_array_path(m, 3.0) == 0.5


def test_overflowing_power_falls_back():
    m = LambdaUnary(lambda p: 10.0 ** (p * 100.0), "blow-up")
    with pytest.raises(OverflowError):
        10.0 ** 400.0
    assert _same_as_array_path(m, 4) == math.inf
    assert math.isfinite(_same_as_array_path(m, 2.0))


def test_binary_division_by_zero_falls_back():
    m = LambdaBinary(lambda ps, pr: 1.0 / (ps - pr), "diagonal pole")
    assert _same_as_array_path(m, 2, 2) == math.inf
    assert _same_as_array_path(m, 4.0, 2.0) == 0.5


def test_complex_power_falls_back():
    # A negative base to a fractional power is complex on Python floats
    # and nan in numpy; the call gives numpy's nan.
    m = LambdaUnary(lambda p: (p - 2.0) ** 0.5, "root")
    assert math.isnan(_same_as_array_path(m, 1.5))
    assert _same_as_array_path(m, 6) == 2.0


def test_array_only_model_falls_back():
    # A model written for arrays alone still prices a plain number.
    m = LambdaUnary(lambda p: np.full(p.shape, 6.0) / p, "array-only")
    assert _same_as_array_path(m, 3) == 2.0
    b = LambdaBinary(lambda ps, pr: (ps + pr).reshape(ps.shape), "array-only")
    assert _same_as_array_path(b, 2.0, 5) == 7.0
