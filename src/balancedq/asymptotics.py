"""Central-limit approximations and asymptotic redundancy.

Counts of balanced words admit sharp Gaussian estimates: the running charge
and polarity sums of a uniformly random word are asymptotically normal, so
the number of words hitting an exact target is q**n times a normal density
at that target.  Everything here is computed in log space first; the plain
count functions exponentiate on demand and can overflow a double for large
n, in which case use the *_ln_* variants.

Feasibility (parity and divisibility of n) is enforced: asking for an
approximation of an empty set is an error, not a tiny float.
"""

from __future__ import annotations

import math
from typing import Tuple

from .alphabet import _Record, symbols
from .counting import check_kind
from .errors import InfeasibleParamsError

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


def stirling_ln_factorial(n: int) -> float:
    """ln of the Stirling estimate sqrt(2 pi n) (n/e)**n; exact 0 at n=0."""
    if n < 0:
        raise ValueError(f"factorial argument must be >= 0, got {n}")
    if n == 0:
        return 0.0
    return 0.5 * math.log(_TWO_PI * n) + n * (math.log(n) - 1.0)


def _phi_value(s: int, mode: str) -> Fraction:
    from fractions import Fraction  # not at module load: count commands never need it
    sign = (s > 0) - (s < 0)
    if mode == "charge":
        return Fraction(s, 2)
    if mode == "half":
        return Fraction(sign, 2)
    return Fraction(sign)


class GaussianSpec(_Record):
    """Mean and variance of a per-word statistic sum(f(x_i))."""

    __slots__ = ("n", "q", "mode", "mu", "sigma2")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


def gaussian_spec(n: int, q: int, mode: str = "charge") -> GaussianSpec:
    """Moments of the charge or polarity sum of a uniform random word.

    mode="charge" uses f(x)=x/2 and gives variance n(q^2-1)/12; mode="half"
    (f = sign/2, natural for even q) gives n/4; mode="unit" (f = sign)
    gives n(q-1)/q.  The mean is zero for every mode by symmetry.
    """
    if mode not in SPEC_MODES:
        raise InfeasibleParamsError(f"spec mode must be one of {SPEC_MODES}, got {mode!r}")
    if n < 1:
        raise InfeasibleParamsError(f"length must be >= 1, got {n}")
    vals = [_phi_value(s, mode) for s in symbols(q)]
    mean = sum(vals) / q
    var = sum(v * v for v in vals) / q - mean * mean
    return GaussianSpec(n, q, mode, float(n * mean), float(n * var))


def gaussian_ln_count(spec: GaussianSpec, s: float = 0.0) -> float:
    """ln of q**n times the normal density of spec evaluated at s."""
    z = (s - spec.mu) / spec.sigma
    return spec.n * math.log(spec.q) - math.log(spec.sigma) - 0.5 * math.log(_TWO_PI) - 0.5 * z * z


def gaussian_count(spec: GaussianSpec, s: float = 0.0) -> float:
    """Gaussian estimate of the number of words whose statistic equals s."""
    return math.exp(gaussian_ln_count(spec, s))


def approx_ln_count(kind: str, n: int, q: int) -> float:
    """ln of the closed-form approximate count of kind-balanced words."""
    kind = check_kind(kind)
    _check_feasible(kind, n, q)
    lnq = math.log(q)
    base = n * lnq
    if kind == "sb":
        return base - (q - 1) / 2.0 * math.log(_TWO_PI * n) + q / 2.0 * lnq
    if kind == "cb":
        return base + 0.5 * math.log(6.0 / (math.pi * n * (q * q - 1)))
    if kind == "pb":
        if q % 2 == 0:
            return base + 0.5 * math.log(2.0 / (math.pi * n))
        return base + 0.5 * math.log(q / (_TWO_PI * n * (q - 1)))
    # cpb; for q <= 3 charge balance already implies polarity balance
    if q <= 3:
        return approx_ln_count("cb", n, q)
    if q % 2 == 0:
        return base - math.log(math.pi * n) + 0.5 * math.log(48.0 / (q * q - 4))
    return base - math.log(math.pi * n) + 0.5 * math.log(
        12.0 * q * q / ((q * q - 1) * (q - 1) * (q - 3))
    )


def approx_count(kind: str, n: int, q: int) -> float:
    """Closed-form approximate count; overflows a double for large n."""
    return math.exp(approx_ln_count(kind, n, q))


def approx_redundancy(kind: str, n: int, q: int) -> float:
    """Closed-form approximation of the redundancy n - log_q(count).

    Affine in log_q(n); the slope is anr(kind, q).
    """
    kind = check_kind(kind)
    _check_feasible(kind, n, q)
    lnq = math.log(q)
    lgn = math.log(n) / lnq

    def lg(x: float) -> float:
        return math.log(x) / lnq

    if kind == "sb":
        return (q - 1) / 2.0 * lgn + (q - 1) / 2.0 * lg(_TWO_PI) - q / 2.0
    if kind == "cb":
        return 0.5 * lgn + 0.5 * lg(math.pi * (q * q - 1) / 6.0)
    if kind == "pb":
        if q % 2 == 0:
            return 0.5 * lgn + 0.5 * lg(math.pi / 2.0)
        return 0.5 * lgn + 0.5 * lg(_TWO_PI * (q - 1) / q)
    if q <= 3:
        return approx_redundancy("cb", n, q)
    if q % 2 == 0:
        return lgn + lg(math.pi * math.sqrt((q * q - 4) / 48.0))
    return lgn + lg(math.pi * math.sqrt((q * q - 1) * (q - 1) * (q - 3) / (12.0 * q * q)))


def anr(kind: str, q: int) -> Fraction:
    """Asymptotic normalized redundancy: lim r(n) / log_q(n).

    Exact rational: (q-1)/2 for symbol balance, 1/2 for charge or polarity
    balance, and 1 for joint balance once q >= 4 (two constraints bind);
    for q <= 3 joint balance degenerates to charge balance.
    """
    from fractions import Fraction  # not at module load: count commands never need it
    kind = check_kind(kind)
    if q < 2:
        raise InfeasibleParamsError(f"alphabet order must be >= 2, got {q}")
    if kind == "sb":
        return Fraction(q - 1, 2)
    if kind in ("cb", "pb"):
        return Fraction(1, 2)
    return Fraction(1, 2) if q <= 3 else Fraction(1)


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
    sigma1 = math.sqrt(n * (q * q - 1) / 12.0)
    if q % 2 == 0:
        sigma2 = math.sqrt(n / 4.0)
        rho = math.sqrt(3.0 * q * q / (4.0 * (q * q - 1)))
    else:
        sigma2 = math.sqrt(n * (q - 1) / q)
        rho = math.sqrt(3.0 * (q + 1) / (4.0 * q))
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
