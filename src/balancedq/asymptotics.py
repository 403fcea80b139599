"""Central-limit approximations and asymptotic redundancy.

A uniformly random word is a sum of n i.i.d. symbol steps, so by the lattice
local limit theorem the number of words that hit an exact target is q**n
times a normal density there.  Each balance kind fixes d sums of the steps;
with det the determinant of one step's covariance of those sums, in lattice
units, the count is about q**n / sqrt((2 pi n)**d det), the redundancy is
(d log_q(2 pi n) + log_q det) / 2, and its slope in log_q n (anr) is d/2:

    kind                      d      det
    sb                        q-1    q**-q
    cb, and cpb at q <= 3     1      (q**2-1)/12
    pb                        1      1/4 at even q; (q-1)/q at odd q
    cpb at even q >= 4        2      (q**2-4)/192
    cpb at odd q >= 5         2      (q**2-1)(q-1)(q-3)/(48 q**2)

The cb step is x/2 and the pb step sign(x), halved at even q; cpb takes both
(for q <= 3 charge balance implies polarity balance), and sb fixes q-1 symbol
counts.  Logs come first: approx_count overflows a double for large n, where
approx_ln_count does not.  An infeasible (kind, n, q) raises: an empty set
has no approximation.
"""

from __future__ import annotations

import math
from typing import Tuple

from .errors import InfeasibleParamsError, _check_q, _Record, check_kind

SPEC_MODES = ("charge", "half", "unit")

_TWO_PI = 2.0 * math.pi


def _check_feasible(kind: str, n: int, q: int) -> None:
    if q < 2:
        raise InfeasibleParamsError(f"alphabet order must be >= 2, got {q}")
    if n < 1:
        raise InfeasibleParamsError(f"length must be >= 1, got {n}")
    if kind == "sb" and n % q:
        raise InfeasibleParamsError(f"symbol balance needs q | n, got n={n}, q={q}")
    if kind != "sb" and q % 2 == 0 and n % 2:
        raise InfeasibleParamsError(
            f"{kind} balance over an even alphabet needs even n, got n={n}"
        )


def _variance(q: int, mode: str) -> Tuple[int, int]:
    """One symbol's variance of f(x), as an exact num/den: f is x/2 for
    "charge", sign(x) for "unit" and sign(x)/2 for "half"; the mean is 0."""
    if mode == "charge":
        return q * q - 1, 12
    return 2 * (q // 2), (q if mode == "unit" else 4 * q)


def _polarity_mode(q: int) -> str:  # the sum of signs moves by 2 at even q
    return "half" if q % 2 == 0 else "unit"


def _model(kind: str, q: int) -> Tuple[int, float]:
    """(d, ln det) of the kind's Gaussian model; see the module docstring."""
    if kind == "sb":
        return q - 1, -q * math.log(q)
    if kind == "cpb" and q >= 4:
        if q % 2 == 0:
            return 2, math.log((q * q - 4) / 192)
        return 2, math.log((q * q - 1) * (q - 1) * (q - 3) / (48 * q * q))
    num, den = _variance(q, _polarity_mode(q) if kind == "pb" else "charge")
    return 1, math.log(num / den)


def _half_ln_density(kind: str, n: int, q: int) -> float:
    """-ln of the model's normal density at its centre: (d ln(2 pi n) + ln det)/2."""
    kind = check_kind(kind)
    _check_feasible(kind, n, q)
    d, ln_det = _model(kind, q)
    return 0.5 * (d * math.log(_TWO_PI * n) + ln_det)


def stirling_ln_factorial(n: int) -> float:
    """ln of the Stirling estimate sqrt(2 pi n) (n/e)**n; exact 0 at n=0."""
    if n < 0:
        raise ValueError(f"factorial argument must be >= 0, got {n}")
    if n == 0:
        return 0.0
    return 0.5 * math.log(_TWO_PI * n) + n * (math.log(n) - 1.0)


class GaussianSpec(_Record):
    """Mean and variance of a per-word statistic sum(f(x_i))."""

    __slots__ = ("n", "q", "mode", "mu", "sigma2")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


def gaussian_spec(n: int, q: int, mode: str = "charge") -> GaussianSpec:
    """Moments of the charge or polarity sum of a uniform random word.

    mode="charge" uses f(x)=x/2 and gives variance n(q^2-1)/12; mode="half"
    (f = sign/2, natural for even q) gives n(q//2)/(2q), n/4 at even q;
    mode="unit" (f = sign) gives 2n(q//2)/q, n(q-1)/q at odd q.  The mean
    is zero for every mode by symmetry.
    """
    if mode not in SPEC_MODES:
        raise InfeasibleParamsError(f"spec mode must be one of {SPEC_MODES}, got {mode!r}")
    if n < 1:
        raise InfeasibleParamsError(f"length must be >= 1, got {n}")
    _check_q(q)
    num, den = _variance(q, mode)
    return GaussianSpec(n, q, mode, 0.0, n * num / den)  # int / int rounds correctly


def gaussian_ln_count(spec: GaussianSpec, s: float = 0.0) -> float:
    """ln of q**n times the normal density of spec evaluated at s."""
    z = (s - spec.mu) / spec.sigma
    return spec.n * math.log(spec.q) - math.log(spec.sigma) - 0.5 * math.log(_TWO_PI) - 0.5 * z * z


def gaussian_count(spec: GaussianSpec, s: float = 0.0) -> float:
    """Gaussian estimate of the number of words whose statistic equals s."""
    return math.exp(gaussian_ln_count(spec, s))


def approx_ln_count(kind: str, n: int, q: int) -> float:
    """ln of the closed-form approximate count of kind-balanced words."""
    return n * math.log(q) - _half_ln_density(kind, n, q)


def approx_count(kind: str, n: int, q: int) -> float:
    """Closed-form approximate count; overflows a double for large n."""
    return math.exp(approx_ln_count(kind, n, q))


def approx_redundancy(kind: str, n: int, q: int) -> float:
    """n - log_q of the approximate count; affine in log_q(n), with slope anr(kind, q)."""
    return _half_ln_density(kind, n, q) / math.log(q)


def anr(kind: str, q: int) -> Fraction:
    """Asymptotic normalized redundancy lim r(n) / log_q(n): exactly d/2.

    That is (q-1)/2 for sb, 1/2 for cb, pb and cpb at q <= 3, and 1 for cpb
    at q >= 4, where two constraints bind."""
    from fractions import Fraction  # not at module load: count commands never need it
    kind = check_kind(kind)
    if q < 2:
        raise InfeasibleParamsError(f"alphabet order must be >= 2, got {q}")
    return Fraction(_model(kind, q)[0], 2)


class BivariateSpec(_Record):
    """Joint Gaussian model of (charge sum, polarity sum) for one word."""

    __slots__ = ("n", "q", "mu1", "sigma1", "mu2", "sigma2", "rho")


def bivariate_spec(n: int, q: int) -> BivariateSpec:
    """Correlated Gaussian model of the charge sum (in half units) and the
    polarity sum.

    The first coordinate is sum(x)/2, half of the raw symbol sum used by
    JointCensus.cell, so compare cell(c, p) against (s1, s2) = (c/2, p).
    Needs q >= 4: for q <= 3 the two sums are deterministically linked and
    the correlation degenerates to 1.
    """
    if q <= 3:
        raise InfeasibleParamsError(
            f"joint model needs q >= 4; for q={q} charge and polarity coincide"
        )
    if n < 1:
        raise InfeasibleParamsError(f"length must be >= 1, got {n}")
    sigma1, sigma2 = (gaussian_spec(n, q, mode).sigma for mode in ("charge", _polarity_mode(q)))
    rho = math.sqrt(3.0 * q * q / (4.0 * (q * q - 1)) if q % 2 == 0 else 3.0 * (q + 1) / (4.0 * q))
    return BivariateSpec(n, q, 0.0, sigma1, 0.0, sigma2, rho)


def joint_gaussian_ln_count(spec: BivariateSpec, s1: float = 0.0, s2: float = 0.0) -> float:
    """ln of q**n times the bivariate normal density at (s1, s2)."""
    z1 = (s1 - spec.mu1) / spec.sigma1
    z2 = (s2 - spec.mu2) / spec.sigma2
    one_minus = 1.0 - spec.rho * spec.rho
    quad = (z1 * z1 + z2 * z2 - 2.0 * spec.rho * z1 * z2) / one_minus
    return (
        spec.n * math.log(spec.q)
        - math.log(_TWO_PI * spec.sigma1 * spec.sigma2 * math.sqrt(one_minus))
        - 0.5 * quad
    )


def joint_gaussian_count(spec: BivariateSpec, s1: float = 0.0, s2: float = 0.0) -> float:
    """Bivariate Gaussian estimate of the number of words at (s1, s2).

    At (0, 0) this reproduces the closed-form approximate count of jointly
    balanced words exactly.
    """
    return math.exp(joint_gaussian_ln_count(spec, s1, s2))
