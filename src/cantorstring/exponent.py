"""Spectral exponents, lattice classification, and growth diagnostics.

The recursive exponent gamma_r is the unique positive root of

    f(s) = sum_j p_j sum_i (r_i^(j) m_i^(j))^s = 1,

the homogeneous exponent gamma_h the root of the geometric-mean version

    sum_j p_j log( sum_i (r_i^(j) m_i^(j))^s ) = 0.

Both functions are continuous and strictly decreasing with f(0) >= 2, so a
safeguarded bisection converges unconditionally; roots are resolved to the
last bit, residuals land at ~1e-16. Jensen's inequality gives
gamma_h <= gamma_r, with equality exactly when all letters share a common
per-letter root alpha of sum_i (r_i m_i)^alpha = 1.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Dict, NamedTuple, Optional, Sequence

from .ifs import IfsModel, Letter

EQUAL = "equal"
STRICTLY_LESS = "strictly-less"
EQUALITY_TOL = 1e-10  # check_equality_condition: the largest alpha spread that is EQUAL
LATTICE_TOL, MAX_MULTIPLE = 1e-9, 10 ** 6  # classify_lattice: integer closeness and size

# Every function of a model reads model.support, the selectable letters' products, which
# validates the model once per object and raises ValueError("invalid model: ...").


def _root(fn: Callable[[float], float], rel_tol: float = 1e-16) -> float:
    """Root of fn, where fn(x) > 0 means x lies below it: the midpoint of the last bracket.

    hi doubles from 1.0 until fn(hi) <= 0, then the bracket (lo, hi) halves until
    hi - lo <= rel_tol * max(1.0, hi). It also stops once the midpoint is
    no longer strictly inside: the bracket cannot move after that, and the
    stop bounds the loop even where rel_tol is below the float spacing.
    """
    lo, hi = 0.0, 1.0
    while fn(hi) > 0.0:
        lo, hi = hi, hi * 2.0
        if hi > 1e300:
            raise RuntimeError("no root found while expanding the bracket")
    while hi - lo > rel_tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mean_product_power(model: IfsModel, s: float) -> float:
    """f(s) = E[ sum_i (r_i m_i)^s ] over the letter distribution."""
    return math.fsum(p * math.fsum(q ** s for q in products) for p, products in model.support)


def solve_recursive_exponent(model: IfsModel) -> float:
    """gamma_r: unique positive root of f(s) = 1 (residual <= 1e-14)."""
    return _root(lambda s: mean_product_power(model, s) - 1.0)


def solve_homogeneous_exponent(model: IfsModel) -> float:
    """gamma_h: root of sum_j p_j log(sum_i (r_i m_i)^s) = 0."""
    return _root(lambda s: math.fsum(p * math.log(math.fsum(q ** s for q in products))
                                     for p, products in model.support))


def _alpha(products: Sequence[float]) -> float:
    """Root alpha of sum_i q_i^alpha = 1 over one letter's products q_i = r_i m_i."""
    return _root(lambda s: math.fsum(q ** s for q in products) - 1.0)


def hausdorff_dimension(letter: Letter) -> float:
    """Dimension d in [0, 1] solving sum_i ratio_i^d = 1."""
    ratios = [s.ratio for s in letter.maps]
    total = math.fsum(ratios)
    if total >= 1.0:
        return 1.0
    # hi <= 1 keeps the 1e-17 stop absolute: below dimension 1/32 it fires
    # before the bracket converges
    return _root(lambda d: math.fsum(r ** d for r in ratios) - 1.0, rel_tol=1e-17)


# ---------------------------------------------------------------------------
# Lattice classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeClassification:
    lattice: bool
    span: Optional[float] = None


def _real_gcd(a: float, b: float, floor: float) -> float:
    # nearest-integer Euclid; the remainder at least halves every step
    while b > floor:
        a, b = b, abs(a - b * round(a / b))
    return a


def classify_lattice(model: IfsModel) -> LatticeClassification:
    """Lattice test for the offsets tau = -log(r_i m_i) over selectable letters.

    Returns the largest span T such that every tau/T is within LATTICE_TOL of
    an integer <= MAX_MULTIPLE; genuinely irrational ratios fail the integer
    check and classify as non-lattice.
    """
    taus = sorted({-math.log(q) for _, products in model.support for q in products},
                  reverse=True)
    g = taus[0]
    floor = 1e-12 * taus[0]
    for t in taus[1:]:
        g = _real_gcd(g, t, floor)
    if g <= floor:
        return LatticeClassification(False)
    multiples = [round(t / g) for t in taus]
    if any(k < 1 or k > MAX_MULTIPLE for k in multiples):
        return LatticeClassification(False)
    # least-squares refit of the span through the rounded multiples
    span = math.fsum(k * t for k, t in zip(multiples, taus)) / math.fsum(k * k for k in multiples)
    if any(abs(t / span - k) > LATTICE_TOL for k, t in zip(multiples, taus)):
        return LatticeClassification(False)
    return LatticeClassification(True, span * math.gcd(*multiples))


# ---------------------------------------------------------------------------
# Malthusian diagnostics and comparison
# ---------------------------------------------------------------------------

class MalthusianDiagnostics(NamedTuple):
    condition1_residual: float  # |E integral e^(-gamma t) dxi - 1|
    condition2_value: float     # first moment of the tilted reproduction measure
    xlogx_value: float          # E[xi_gamma(inf) log+ xi_gamma(inf)]


def malthusian_diagnostics(model: IfsModel, gamma: float) -> MalthusianDiagnostics:
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    residual = abs(mean_product_power(model, gamma) - 1.0)
    moment = 0.0
    xlogx = 0.0
    for p, products in model.support:
        tilted = [q ** gamma for q in products]
        moment += p * math.fsum(-math.log(q) * t for q, t in zip(products, tilted))
        total = math.fsum(tilted)
        xlogx += p * total * max(math.log(total), 0.0)
    return MalthusianDiagnostics(residual, moment, xlogx)


def check_equality_condition(model: IfsModel) -> str:
    """EQUAL iff all selectable letters share the per-letter alpha, to EQUALITY_TOL."""
    alphas = [_alpha(products) for _, products in model.support]
    return EQUAL if max(alphas) - min(alphas) <= EQUALITY_TOL else STRICTLY_LESS


def nerman_constant_hat_phi(model: IfsModel, gamma: float) -> float:
    """Limit constant of e^(-gamma t) z_t for the born-after characteristic.

    Closed form for finite alphabets:

        [ sum_j p_j sum_i (1 - e^(-gamma tau_ji)) / gamma ]
        / [ sum_j p_j sum_i tau_ji e^(-gamma tau_ji) ]
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    num = 0.0
    den = 0.0
    for p, products in model.support:
        for q in products:
            tau = -math.log(q)
            num += p * (1.0 - q ** gamma) / gamma
            den += p * tau * q ** gamma
    return num / den


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentReport:
    gamma_r: float
    gamma_h: float
    hausdorff: Dict[str, float]
    lattice: LatticeClassification
    malthusian_ok: bool
    condition2_value: float
    xlogx_value: float
    comparison: str

    def to_dict(self) -> dict:
        return asdict(self)


def build_report(model: IfsModel) -> ExponentReport:
    gamma_r = solve_recursive_exponent(model)
    gamma_h = solve_homogeneous_exponent(model)
    diag = malthusian_diagnostics(model, gamma_r)
    return ExponentReport(
        gamma_r=gamma_r,
        gamma_h=gamma_h,
        hausdorff={letter.id: hausdorff_dimension(letter) for letter in model.letters},
        lattice=classify_lattice(model),
        malthusian_ok=diag.condition1_residual <= 1e-12,
        condition2_value=diag.condition2_value,
        xlogx_value=diag.xlogx_value,
        comparison=check_equality_condition(model),
    )
