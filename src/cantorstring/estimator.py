"""Empirical spectral exponents from computed counting curves.

The growth order is read off as the least-squares slope of log(count)
against log(x). Finite-depth atomizations are trustworthy only below the
inverse spectral scale of the smallest cell, so the regression window
keeps the top two decades of the computed grid and drops the
largest half-decade.
"""
from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

Curve = Sequence[Tuple[float, float]]

WINDOW = (2.0, 0.5)  # decades below the top: [top - 2.0, top - 0.5]


def _usable(curve: Curve) -> np.ndarray:
    pts = np.asarray([(x, c) for x, c in curve], dtype=float)
    if pts.size == 0:
        raise ValueError("empty curve")
    return pts[(pts[:, 1] >= 1.0) & (pts[:, 0] > 0.0)]


def _window_points(pts: np.ndarray) -> np.ndarray:
    top = math.log10(pts[:, 0].max())
    lo, hi = top - WINDOW[0], top - WINDOW[1]
    logx = np.log10(pts[:, 0])
    return pts[(logx >= lo) & (logx <= hi)]


def fit_exponent(curve: Curve) -> Tuple[float, float]:
    """(slope, stderr) of log count vs log x over the window.

    Requires at least ten points with count >= 1 spanning three decades,
    and at least three of them inside the window.
    """
    pts = _usable(curve)
    if len(pts) < 10:
        raise ValueError(f"need >= 10 points with count >= 1, have {len(pts)}")
    span = math.log10(pts[:, 0].max() / pts[:, 0].min())
    if span < 3.0:
        raise ValueError(f"x values span {span:.2f} decades, need >= 3")
    sel = _window_points(pts)
    if len(sel) < 3:
        raise ValueError(f"only {len(sel)} points in the regression window")
    lx = np.log(sel[:, 0])
    lc = np.log(sel[:, 1])
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    slope = float(np.sum((lx - lx.mean()) * (lc - lc.mean())) / sxx)
    intercept = lc.mean() - slope * lx.mean()
    residuals = lc - intercept - slope * lx
    dof = len(sel) - 2
    stderr = math.sqrt(float(np.sum(residuals ** 2)) / dof / sxx) if dof > 0 else 0.0
    return slope, stderr


def tail_statistics(curve: Curve, gamma: float) -> Tuple[float, float]:
    """(mean, coefficient of variation) of normalized counts in the window."""
    pts = _window_points(_usable(curve))
    if len(pts) == 0:
        raise ValueError("no usable points in the tail window")
    vals = pts[:, 1] * pts[:, 0] ** (-gamma)
    mean = float(vals.mean())
    cv = float(vals.std() / mean) if mean > 0 else math.inf
    return mean, cv
