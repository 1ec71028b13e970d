"""Least-squares fitting of the §5 cost models from profile samples.

The paper derives its model parameters "automatically by analyzing the
profile information from a set of executions".  We fit each polynomial
family by non-negative least squares (scipy's NNLS): all the model terms
represent real costs, so constraining the coefficients to be non-negative
keeps fitted times positive at every processor count and regularises the
small-sample (8-run) regime the paper operates in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.cost import PolynomialEComm, PolynomialExec, PolynomialIComm
from ..core.exceptions import ModelFitError

__all__ = [
    "FitDiagnostics",
    "fit_exec",
    "fit_icom",
    "fit_ecom",
    "fit_memory",
    "fit_tabulated_unary",
    "fit_tabulated_binary",
]


@dataclass
class FitDiagnostics:
    """Quality of one model fit."""

    n_samples: int
    residual_rms: float       # RMS of absolute residuals (seconds)
    relative_error: float     # mean |predicted - measured| / measured

    def __repr__(self):
        return (
            f"FitDiagnostics(n={self.n_samples}, rms={self.residual_rms:.3g}s, "
            f"rel={self.relative_error:.2%})"
        )


def _nnls_fit(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    if not np.isfinite(design).all() or not np.isfinite(target).all():
        raise ModelFitError("non-finite values in profile samples")
    # Imported here: scipy is most of the mapper's import time otherwise.
    from scipy.optimize import nnls

    coeffs, _ = nnls(design, target)
    return coeffs


def _diagnostics(design: np.ndarray, target: np.ndarray, coeffs: np.ndarray) -> FitDiagnostics:
    pred = design @ coeffs
    resid = pred - target
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(resid) / np.where(target > 0, target, np.nan)
    rel = rel[np.isfinite(rel)]
    return FitDiagnostics(
        n_samples=len(target),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        relative_error=float(rel.mean()) if len(rel) else 0.0,
    )


def fit_exec(
    samples: Sequence[tuple[int, float]]
) -> tuple[PolynomialExec, FitDiagnostics]:
    """Fit ``f_exec(p) = C1 + C2/p + C3*p`` from ``(p, seconds)`` samples."""
    if len(samples) < 2:
        raise ModelFitError(f"need >= 2 execution samples, got {len(samples)}")
    p = np.array([float(s[0]) for s in samples])
    t = np.array([float(s[1]) for s in samples])
    if (p < 1).any():
        raise ModelFitError("execution samples need processor counts >= 1")
    design = np.column_stack([np.ones_like(p), 1.0 / p, p])
    coeffs = _nnls_fit(design, t)
    return PolynomialExec(*coeffs), _diagnostics(design, t, coeffs)


def fit_icom(
    samples: Sequence[tuple[int, float]]
) -> tuple[PolynomialIComm, FitDiagnostics]:
    """Fit the 3-term internal-communication model (same family as exec)."""
    model, diag = fit_exec(samples)
    return PolynomialIComm(*model.coefficients()), diag


def fit_ecom(
    samples: Sequence[tuple[int, int, float]]
) -> tuple[PolynomialEComm, FitDiagnostics]:
    """Fit ``f_ecom(ps, pr) = C1 + C2/ps + C3/pr + C4*ps + C5*pr`` from
    ``(ps, pr, seconds)`` samples."""
    if len(samples) < 2:
        raise ModelFitError(f"need >= 2 communication samples, got {len(samples)}")
    ps = np.array([float(s[0]) for s in samples])
    pr = np.array([float(s[1]) for s in samples])
    t = np.array([float(s[2]) for s in samples])
    if (ps < 1).any() or (pr < 1).any():
        raise ModelFitError("communication samples need processor counts >= 1")
    design = np.column_stack(
        [np.ones_like(ps), 1.0 / ps, 1.0 / pr, ps, pr]
    )
    coeffs = _nnls_fit(design, t)
    return PolynomialEComm(*coeffs), _diagnostics(design, t, coeffs)


def fit_tabulated_unary(
    samples: Sequence[tuple[int, float]]
) -> tuple["TabulatedUnary", FitDiagnostics]:
    """Pointwise model (§5: "defined pointwise possibly using
    interpolation"): average repeated observations per partition size and
    interpolate in 1/p between them."""
    from ..core.cost import TabulatedUnary

    if not samples:
        raise ModelFitError("need at least one sample for a tabulated model")
    by_p: dict[int, list[float]] = {}
    for p, t in samples:
        if p < 1 or not math.isfinite(t):
            raise ModelFitError(f"bad tabulated sample ({p}, {t})")
        by_p.setdefault(int(p), []).append(float(t))
    points = {p: float(np.mean(ts)) for p, ts in by_p.items()}
    model = TabulatedUnary(points)
    pred = np.array([model(p) for p, _ in samples])
    t = np.array([t for _, t in samples])
    resid = pred - t
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(resid) / np.where(t > 0, t, np.nan)
    rel = rel[np.isfinite(rel)]
    diag = FitDiagnostics(
        n_samples=len(samples),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        relative_error=float(rel.mean()) if len(rel) else 0.0,
    )
    return model, diag


def fit_tabulated_binary(
    samples: Sequence[tuple[int, int, float]]
) -> tuple["ScatteredBinary", FitDiagnostics]:
    """Pointwise binary model from scattered ``(ps, pr, t)`` observations."""
    from ..core.cost import ScatteredBinary

    if not samples:
        raise ModelFitError("need at least one sample for a tabulated model")
    by_pair: dict[tuple[int, int], list[float]] = {}
    for ps, pr, t in samples:
        if ps < 1 or pr < 1 or not math.isfinite(t):
            raise ModelFitError(f"bad tabulated sample ({ps}, {pr}, {t})")
        by_pair.setdefault((int(ps), int(pr)), []).append(float(t))
    points = [(a, b, float(np.mean(ts))) for (a, b), ts in by_pair.items()]
    model = ScatteredBinary(points)
    pred = np.array([model(a, b) for a, b, _ in samples])
    t = np.array([t for _, _, t in samples])
    resid = pred - t
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(resid) / np.where(t > 0, t, np.nan)
    rel = rel[np.isfinite(rel)]
    diag = FitDiagnostics(
        n_samples=len(samples),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        relative_error=float(rel.mean()) if len(rel) else 0.0,
    )
    return model, diag


def fit_memory(
    samples: Sequence[tuple[int, float]]
) -> tuple[float, float]:
    """Fit the memory model ``mem(p) = fixed + parallel / p`` (in MB).

    The paper measures "memory used for global and system variables, local
    variables, and compiler buffers" separately; we observe the per-processor
    footprint at each training partition size and recover the two components.
    """
    if len(samples) < 2:
        raise ModelFitError(f"need >= 2 memory samples, got {len(samples)}")
    p = np.array([float(s[0]) for s in samples])
    mb = np.array([float(s[1]) for s in samples])
    design = np.column_stack([np.ones_like(p), 1.0 / p])
    coeffs = _nnls_fit(design, mb)
    fixed, parallel = float(coeffs[0]), float(coeffs[1])
    if not (math.isfinite(fixed) and math.isfinite(parallel)):
        raise ModelFitError("memory fit diverged")
    return fixed, parallel
