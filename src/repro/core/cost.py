"""Computation- and communication-cost models (paper §5).

The mapping algorithms never assume a particular analytic form: they only
evaluate *cost functions*.  Execution and internal-communication costs are
functions of one processor count; external-communication costs are functions
of the sending and receiving processor counts.  This module provides

* the polynomial families used by the paper's estimation tool,

  - ``f_exec(p)  = C1 + C2/p + C3*p``                       (eq. in §5)
  - ``f_icom(p)  = C1 + C2/p + C3*p``
  - ``f_ecom(ps, pr) = C1 + C2/ps + C3/pr + C4*ps + C5*pr``

* tabulated (pointwise, interpolated) models, and
* composition helpers used when tasks are clustered into modules.

All models are vectorised: they accept scalars or numpy arrays and evaluate
elementwise, which the dynamic-programming mapper relies on for speed.
Processor counts below 1 evaluate to ``+inf`` so invalid table slots never
win a minimisation.

A plain number (an ``int`` or ``float``, ``bool`` and ``np.float64``
included) is evaluated in float arithmetic: the model's own ``evaluate``
runs on a Python float, with no 0-d array around it.  This is what the
mapper does when it prices one candidate mapping, and it gives the array
path's bits: ``+ - * /`` on Python floats and on float64 arrays are the
same correctly rounded IEEE operations, and a numpy ufunc runs the same
loop on a float as on a 0-d array.  Where plain-float arithmetic raises
instead (``1.0 / 0.0``, an overflowing ``**``), turns complex (a negative
base to a fractional power), or the model reads array attributes a float
lacks (``p.shape``), the call falls back to the array path, so every
input gives the array path's result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "UnaryCost",
    "BinaryCost",
    "PolynomialExec",
    "PolynomialIComm",
    "PolynomialEComm",
    "TabulatedUnary",
    "TabulatedBinary",
    "ScatteredBinary",
    "ZeroUnary",
    "ZeroBinary",
    "SumUnary",
    "ScaledUnary",
    "ScaledBinary",
    "LambdaUnary",
    "LambdaBinary",
    "model_from_dict",
]


_PLAIN = (int, float)
#: What evaluating a model on Python floats raises where numpy would not:
#: a zero division or overflow, ``float()`` of a complex power, or a
#: model that reads an array attribute.  The array path gives the answer.
_FLOAT_ERRORS = (ArithmeticError, TypeError, AttributeError)


def _as_float_array(p):
    """Return ``p`` as a float ndarray (copying scalars into 0-d arrays)."""
    return np.asarray(p, dtype=np.float64)


def _guard(p, values):
    """Replace entries where ``p < 1`` with +inf."""
    return np.where(p >= 1.0, values, np.inf)


class UnaryCost:
    """A cost that depends on one processor count: ``t = f(p)``.

    Subclasses implement :meth:`evaluate` on float ndarrays and on Python
    floats; ``__call__`` accepts scalars or arrays and returns the matching
    shape.
    """

    def evaluate(self, p: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def __call__(self, p):
        if isinstance(p, _PLAIN):
            if not p >= 1.0:
                return np.inf
            try:
                with np.errstate(divide="ignore", invalid="ignore"):
                    return float(self.evaluate(float(p)))
            except _FLOAT_ERRORS:
                pass
        arr = _as_float_array(p)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = _guard(arr, self.evaluate(arr))
        if np.ndim(p) == 0:
            return float(out)
        return out

    # --- serialisation -------------------------------------------------
    def to_dict(self) -> dict:  # pragma: no cover
        raise NotImplementedError(f"{type(self).__name__} is not serialisable")


class BinaryCost:
    """A cost that depends on sender and receiver counts: ``t = f(ps, pr)``."""

    def evaluate(self, ps: np.ndarray, pr: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def __call__(self, ps, pr):
        if isinstance(ps, _PLAIN) and isinstance(pr, _PLAIN):
            if not (ps >= 1.0 and pr >= 1.0):
                return np.inf
            try:
                with np.errstate(divide="ignore", invalid="ignore"):
                    return float(self.evaluate(float(ps), float(pr)))
            except _FLOAT_ERRORS:
                pass
        a = _as_float_array(ps)
        b = _as_float_array(pr)
        a, b = np.broadcast_arrays(a, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.evaluate(a, b)
            out = np.where((a >= 1.0) & (b >= 1.0), out, np.inf)
        if np.ndim(ps) == 0 and np.ndim(pr) == 0:
            return float(out)
        return out

    def unscaled(self) -> tuple["BinaryCost", float]:
        """``(model, factor)`` with ``self(ps, pr) == factor * model(ps, pr)``
        bit for bit: the segment cache keeps one grid per model and
        rescales it, so an edge whose factor drifts reuses its grid."""
        return self, 1.0

    def to_dict(self) -> dict:  # pragma: no cover
        raise NotImplementedError(f"{type(self).__name__} is not serialisable")


# ---------------------------------------------------------------------------
# Polynomial families (paper §5)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolynomialExec(UnaryCost):
    """``f_exec(p) = c_fixed + c_parallel / p + c_overhead * p`` (§5).

    ``c_fixed`` captures sequential/replicated work, ``c_parallel`` perfectly
    parallel work, and ``c_overhead`` per-processor overhead that grows with
    the partition size.
    """

    c_fixed: float = 0.0
    c_parallel: float = 0.0
    c_overhead: float = 0.0

    def evaluate(self, p):
        return self.c_fixed + self.c_parallel / p + self.c_overhead * p

    def coefficients(self) -> tuple[float, float, float]:
        return (self.c_fixed, self.c_parallel, self.c_overhead)

    def to_dict(self) -> dict:
        return {
            "kind": "poly_exec",
            "c_fixed": self.c_fixed,
            "c_parallel": self.c_parallel,
            "c_overhead": self.c_overhead,
        }


class PolynomialIComm(PolynomialExec):
    """``f_icom(p) = c_fixed + c_parallel / p + c_overhead * p`` (§5).

    Internal redistribution when both tasks live on the same processor set;
    same analytic family as :class:`PolynomialExec`.
    """

    def to_dict(self) -> dict:
        d = super().to_dict()
        d["kind"] = "poly_icom"
        return d


@dataclass(frozen=True)
class PolynomialEComm(BinaryCost):
    """``f_ecom(ps, pr) = c1 + c2/ps + c3/pr + c4*ps + c5*pr`` (§5)."""

    c_fixed: float = 0.0
    c_send_parallel: float = 0.0
    c_recv_parallel: float = 0.0
    c_send_overhead: float = 0.0
    c_recv_overhead: float = 0.0

    def evaluate(self, ps, pr):
        return (
            self.c_fixed
            + self.c_send_parallel / ps
            + self.c_recv_parallel / pr
            + self.c_send_overhead * ps
            + self.c_recv_overhead * pr
        )

    def coefficients(self) -> tuple[float, float, float, float, float]:
        return (
            self.c_fixed,
            self.c_send_parallel,
            self.c_recv_parallel,
            self.c_send_overhead,
            self.c_recv_overhead,
        )

    def to_dict(self) -> dict:
        return {
            "kind": "poly_ecom",
            "c_fixed": self.c_fixed,
            "c_send_parallel": self.c_send_parallel,
            "c_recv_parallel": self.c_recv_parallel,
            "c_send_overhead": self.c_send_overhead,
            "c_recv_overhead": self.c_recv_overhead,
        }


# ---------------------------------------------------------------------------
# Tabulated (pointwise) models
# ---------------------------------------------------------------------------


class TabulatedUnary(UnaryCost):
    """A unary cost defined pointwise, linearly interpolated in ``1/p``.

    The paper notes (§5) that the execution/communication functions "may be
    defined pointwise possibly using interpolation"; interpolating in ``1/p``
    makes perfectly-parallel costs exactly linear between samples.
    Extrapolation clamps to the nearest sample.
    """

    def __init__(self, points: dict[int, float] | Iterable[tuple[int, float]]):
        items = sorted(dict(points).items())
        if not items:
            raise ValueError("TabulatedUnary needs at least one sample point")
        if any(p < 1 for p, _ in items):
            raise ValueError("sample processor counts must be >= 1")
        self._ps = np.array([float(p) for p, _ in items])
        self._ts = np.array([float(t) for _, t in items])
        # np.interp needs ascending x; 1/p descends with p, so flip.
        self._inv = 1.0 / self._ps[::-1]
        self._tinv = self._ts[::-1]

    def evaluate(self, p):
        return np.interp(1.0 / p, self._inv, self._tinv)

    def to_dict(self) -> dict:
        return {
            "kind": "tab_unary",
            "points": {int(p): float(t) for p, t in zip(self._ps, self._ts)},
        }


class TabulatedBinary(BinaryCost):
    """A binary cost defined on a grid of ``(ps, pr)`` samples.

    Bilinear interpolation in ``(1/ps, 1/pr)``; extrapolation clamps.
    """

    def __init__(self, points: dict[tuple[int, int], float]):
        if not points:
            raise ValueError("TabulatedBinary needs at least one sample point")
        ps = sorted({p for p, _ in points})
        pr = sorted({r for _, r in points})
        grid = np.full((len(ps), len(pr)), np.nan)
        for (a, b), t in points.items():
            grid[ps.index(a), pr.index(b)] = float(t)
        if np.isnan(grid).any():
            raise ValueError("TabulatedBinary requires a full rectangular grid")
        self._ps = np.array(ps, dtype=np.float64)
        self._pr = np.array(pr, dtype=np.float64)
        self._grid = grid

    def _axis_weights(self, axis: np.ndarray, q: np.ndarray):
        """Indices and weights for 1-D interpolation of ``q`` in 1/axis space."""
        inv_axis = 1.0 / axis  # descending
        inv_q = 1.0 / q
        # Work in ascending order.
        asc = inv_axis[::-1]
        j = np.clip(np.searchsorted(asc, inv_q) - 1, 0, len(asc) - 2)
        x0, x1 = asc[j], asc[j + 1]
        w = np.clip((inv_q - x0) / (x1 - x0), 0.0, 1.0)
        # Map back to original (descending) index space.
        n = len(axis)
        i0 = n - 1 - j
        i1 = n - 2 - j
        return i0, i1, w

    def evaluate(self, ps, pr):
        if len(self._ps) == 1 and len(self._pr) == 1:
            return np.full(np.shape(ps), self._grid[0, 0])
        if len(self._ps) == 1:
            i0, i1, w = self._axis_weights(self._pr, pr)
            row = self._grid[0]
            return row[i0] * (1 - w) + row[i1] * w
        if len(self._pr) == 1:
            i0, i1, w = self._axis_weights(self._ps, ps)
            col = self._grid[:, 0]
            return col[i0] * (1 - w) + col[i1] * w
        a0, a1, wa = self._axis_weights(self._ps, ps)
        b0, b1, wb = self._axis_weights(self._pr, pr)
        g = self._grid
        return (
            g[a0, b0] * (1 - wa) * (1 - wb)
            + g[a1, b0] * wa * (1 - wb)
            + g[a0, b1] * (1 - wa) * wb
            + g[a1, b1] * wa * wb
        )

    def to_dict(self) -> dict:
        pts = {}
        for i, a in enumerate(self._ps):
            for j, b in enumerate(self._pr):
                pts[f"{int(a)},{int(b)}"] = float(self._grid[i, j])
        return {"kind": "tab_binary", "points": pts}


# ---------------------------------------------------------------------------
# Trivial / composite models
# ---------------------------------------------------------------------------


class ScatteredBinary(BinaryCost):
    """A binary cost interpolated from *scattered* ``(ps, pr, t)`` samples.

    Unlike :class:`TabulatedBinary` no rectangular sample grid is required —
    this is the natural model for profiled external-communication data,
    where each training run contributes one (sender, receiver) pair.
    Interpolation is linear over the Delaunay triangulation of the samples
    in ``(1/ps, 1/pr)`` space, falling back to the nearest sample outside
    the convex hull.  Degenerate sample sets (a single point, collinear
    points) fall back to nearest-neighbour everywhere.
    """

    def __init__(self, points: Sequence[tuple[int, int, float]]):
        pts = [(int(a), int(b), float(t)) for a, b, t in points]
        if not pts:
            raise ValueError("ScatteredBinary needs at least one sample")
        if any(a < 1 or b < 1 for a, b, _ in pts):
            raise ValueError("sample processor counts must be >= 1")
        self._points = pts
        xy = np.array([[1.0 / a, 1.0 / b] for a, b, _ in pts])
        z = np.array([t for _, _, t in pts])
        self._xy = xy
        self._z = z
        self._linear = None
        if len(pts) >= 3:
            try:
                from scipy.interpolate import LinearNDInterpolator

                self._linear = LinearNDInterpolator(xy, z)
            except Exception:
                self._linear = None

    def _nearest(self, q: np.ndarray) -> np.ndarray:
        d2 = ((q[:, None, :] - self._xy[None, :, :]) ** 2).sum(axis=2)
        return self._z[np.argmin(d2, axis=1)]

    def evaluate(self, ps, pr):
        q = np.column_stack([1.0 / np.ravel(ps), 1.0 / np.ravel(pr)])
        if self._linear is not None:
            vals = self._linear(q)
            mask = np.isnan(vals)
            if mask.any():
                vals[mask] = self._nearest(q[mask])
        else:
            vals = self._nearest(q)
        return vals.reshape(np.shape(ps))

    def to_dict(self) -> dict:
        return {
            "kind": "scattered_binary",
            "points": [[a, b, t] for a, b, t in self._points],
        }


class ZeroUnary(UnaryCost):
    """A unary cost that is identically zero (e.g. no redistribution)."""

    def evaluate(self, p):
        return np.zeros_like(p)

    def to_dict(self) -> dict:
        return {"kind": "zero_unary"}


class ZeroBinary(BinaryCost):
    """A binary cost that is identically zero."""

    def evaluate(self, ps, pr):
        return np.zeros_like(ps)

    def to_dict(self) -> dict:
        return {"kind": "zero_binary"}


class SumUnary(UnaryCost):
    """Pointwise sum of unary costs — the execution function of a module is
    the sum of its tasks' execution functions plus the internal
    communication of the edges swallowed by the module (§3.3)."""

    def __init__(self, parts: Sequence[UnaryCost]):
        self.parts = list(parts)

    def evaluate(self, p):
        total = 0.0
        for part in self.parts:
            total = total + part.evaluate(p)
        return total

    def to_dict(self) -> dict:
        return {"kind": "sum_unary", "parts": [m.to_dict() for m in self.parts]}


class ScaledUnary(UnaryCost):
    """A unary cost multiplied by a constant factor."""

    def __init__(self, base: UnaryCost, factor: float):
        self.base = base
        self.factor = float(factor)

    def evaluate(self, p):
        return self.factor * self.base.evaluate(p)

    def to_dict(self) -> dict:
        return {"kind": "scaled_unary", "factor": self.factor, "base": self.base.to_dict()}


class ScaledBinary(BinaryCost):
    """A binary cost multiplied by a constant factor.

    The incremental re-solver uses this to express drifted external
    communication (``f_ecom`` scaled by an observed slowdown) without
    touching the underlying model — see :mod:`repro.core.resolve`.
    """

    def __init__(self, base: BinaryCost, factor: float):
        self.base = base
        self.factor = float(factor)

    def evaluate(self, ps, pr):
        return self.factor * self.base.evaluate(ps, pr)

    def unscaled(self) -> tuple[BinaryCost, float]:
        # A positive finite factor keeps a grid's 0 and +inf entries as
        # they are; any other factor is evaluated as a model of its own.
        if 0.0 < self.factor < float("inf"):
            return self.base, self.factor
        return self, 1.0

    def to_dict(self) -> dict:
        return {"kind": "scaled_binary", "factor": self.factor, "base": self.base.to_dict()}


class LambdaUnary(UnaryCost):
    """Wrap an arbitrary vectorised callable ``f(p)`` as a unary cost.

    Used by workloads whose *true* behaviour includes terms outside the
    fitted polynomial family (so that model fitting has honest error).
    Not serialisable.
    """

    def __init__(self, fn, name: str = "lambda"):
        self._fn = fn
        self.name = name

    def evaluate(self, p):
        return self._fn(p)

    def __repr__(self):
        return f"LambdaUnary({self.name})"


class LambdaBinary(BinaryCost):
    """Wrap an arbitrary vectorised callable ``f(ps, pr)`` as a binary cost."""

    def __init__(self, fn, name: str = "lambda"):
        self._fn = fn
        self.name = name

    def evaluate(self, ps, pr):
        return self._fn(ps, pr)

    def __repr__(self):
        return f"LambdaBinary({self.name})"


# ---------------------------------------------------------------------------
# Deserialisation
# ---------------------------------------------------------------------------


def model_from_dict(d: dict) -> UnaryCost | BinaryCost:
    """Rebuild a cost model from its :meth:`to_dict` representation."""
    kind = d.get("kind")
    if kind == "poly_exec":
        return PolynomialExec(d["c_fixed"], d["c_parallel"], d["c_overhead"])
    if kind == "poly_icom":
        return PolynomialIComm(d["c_fixed"], d["c_parallel"], d["c_overhead"])
    if kind == "poly_ecom":
        return PolynomialEComm(
            d["c_fixed"],
            d["c_send_parallel"],
            d["c_recv_parallel"],
            d["c_send_overhead"],
            d["c_recv_overhead"],
        )
    if kind == "tab_unary":
        return TabulatedUnary({int(p): t for p, t in d["points"].items()})
    if kind == "tab_binary":
        pts = {}
        for key, t in d["points"].items():
            a, b = key.split(",")
            pts[(int(a), int(b))] = t
        return TabulatedBinary(pts)
    if kind == "scattered_binary":
        return ScatteredBinary([tuple(p) for p in d["points"]])
    if kind == "zero_unary":
        return ZeroUnary()
    if kind == "zero_binary":
        return ZeroBinary()
    if kind == "sum_unary":
        return SumUnary([model_from_dict(x) for x in d["parts"]])
    if kind == "scaled_unary":
        return ScaledUnary(model_from_dict(d["base"]), d["factor"])
    if kind == "scaled_binary":
        return ScaledBinary(model_from_dict(d["base"]), d["factor"])
    raise ValueError(f"unknown cost-model kind: {kind!r}")
