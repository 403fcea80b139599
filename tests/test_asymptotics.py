import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from balancedq.asymptotics import (
    anr,
    approx_count,
    approx_ln_count,
    approx_redundancy,
    bivariate_spec,
    gaussian_count,
    gaussian_ln_count,
    gaussian_spec,
    joint_gaussian_count,
    joint_gaussian_ln_count,
    stirling_ln_factorial,
)
from balancedq.alphabet import symbols
from balancedq.counting import KINDS, exact_count, exact_redundancy
from balancedq.errors import InfeasibleParamsError


def test_stirling_values():
    assert stirling_ln_factorial(0) == 0.0
    assert abs(stirling_ln_factorial(1) - (-0.0810615)) < 1e-6
    for n in (5, 10, 50, 200):
        # the plain Stirling form undershoots ln n! by about 1/(12n)
        err = math.lgamma(n + 1) - stirling_ln_factorial(n)
        assert 0 < err < 1 / (12 * n) + 1e-12
    with pytest.raises(ValueError):
        stirling_ln_factorial(-1)


def test_gaussian_spec_moments():
    s = gaussian_spec(12, 5, "charge")
    assert s.mu == 0
    assert math.isclose(s.sigma2, 12 * 24 / 12)
    s = gaussian_spec(8, 4, "half")
    assert math.isclose(s.sigma2, 8 / 4)
    s = gaussian_spec(9, 5, "unit")
    assert math.isclose(s.sigma2, 9 * 4 / 5)


def test_gaussian_count_near_exact():
    # the density estimate is close but not equal at small n
    approx = gaussian_count(gaussian_spec(4, 3, "charge"), 0)
    assert abs(approx - 19.788) < 5e-3
    exact = exact_count("cb", 4, 3)
    assert abs(approx / exact - 1) < 0.05


def test_gaussian_ln_count_consistency():
    spec = gaussian_spec(20, 4, "charge")
    assert math.isclose(math.exp(gaussian_ln_count(spec, 0)), gaussian_count(spec, 0))
    assert gaussian_count(spec, 2) < gaussian_count(spec, 0)


APPROX_FROZEN = {
    # (kind, n, q) -> approximate count, from the closed forms
    ("cb", 4, 3): 19.7884,
    ("cpb", 10, 4): 66754.4214,
}


def test_approx_count_frozen():
    for (kind, n, q), want in APPROX_FROZEN.items():
        assert abs(approx_count(kind, n, q) - want) < 5e-3


def test_approx_redundancy_table_rows():
    rows = {
        10: 1.9867,
        100: 3.6477,
        1000: 5.3086,
    }
    for n, want in rows.items():
        assert abs(approx_redundancy("cpb", n, 4) - want) < 5e-5


def test_approx_matches_exact_at_large_n():
    for q in (2, 3, 4, 5, 6):
        for kind in KINDS:
            n = 240 if kind != "sb" else 240 - (240 % q)
            exact = exact_count(kind, n, q)
            ratio = math.exp(approx_ln_count(kind, n, q) - math.log(exact))
            assert abs(ratio - 1) < 0.02, (kind, q, ratio)


def test_approx_infeasible():
    with pytest.raises(InfeasibleParamsError):
        approx_ln_count("cb", 3, 4)
    with pytest.raises(InfeasibleParamsError):
        approx_ln_count("sb", 5, 3)
    with pytest.raises(InfeasibleParamsError):
        approx_ln_count("cb", 0, 3)


def test_anr_values():
    assert anr("cb", 2) == Fraction(1, 2)
    assert anr("pb", 7) == Fraction(1, 2)
    assert anr("cpb", 2) == Fraction(1, 2)
    assert anr("cpb", 3) == Fraction(1, 2)
    assert anr("cpb", 4) == 1
    assert anr("cpb", 9) == 1
    assert anr("sb", 2) == Fraction(1, 2)
    assert anr("sb", 5) == 2
    for q in range(2, 10):
        assert anr("sb", q) == Fraction(q - 1, 2)


def test_redundancy_is_affine_in_log_n():
    # slope between two lengths must equal the asymptotic coefficient
    for q in (2, 3, 4, 5, 6, 7):
        for kind in KINDS:
            if kind == "sb":
                n1, n2 = 10 * q, 1000 * q
            elif q % 2 == 0:
                n1, n2 = 10, 1000
            else:
                n1, n2 = 11, 1001
            r1 = approx_redundancy(kind, n1, q)
            r2 = approx_redundancy(kind, n2, q)
            slope = (r2 - r1) / (math.log(n2, q) - math.log(n1, q))
            assert abs(slope - float(anr(kind, q))) < 1e-12, (kind, q)


def test_bivariate_spec_values():
    s = bivariate_spec(20, 4)
    assert s.mu1 == 0 and s.mu2 == 0
    assert math.isclose(s.sigma1**2, 20 * 15 / 12)
    assert math.isclose(s.sigma2**2, 20 / 4)
    assert math.isclose(s.rho**2, 0.8)
    s = bivariate_spec(20, 5)
    assert math.isclose(s.rho**2, 0.9)
    assert math.isclose(s.sigma2**2, 20 * 4 / 5)


def test_bivariate_spec_degenerate():
    with pytest.raises(InfeasibleParamsError):
        bivariate_spec(10, 2)
    with pytest.raises(InfeasibleParamsError):
        bivariate_spec(10, 3)


def test_joint_gaussian_matches_cpb_approx():
    for q in (4, 5, 6, 7):
        for n in (8, 40, 200):
            spec = bivariate_spec(n, q)
            lhs = joint_gaussian_ln_count(spec, 0, 0)
            rhs = approx_ln_count("cpb", n, q)
            assert math.isclose(lhs, rhs, rel_tol=1e-12), (q, n)


def test_joint_gaussian_count_positive():
    spec = bivariate_spec(16, 5)
    assert joint_gaussian_count(spec, 0, 0) > 0
    assert joint_gaussian_count(spec, 1, 1) < joint_gaussian_count(spec, 0, 0)


@given(st.sampled_from(KINDS), st.integers(2, 7), st.integers(1, 40))
@settings(deadline=None, max_examples=60)
def test_approx_ln_monotone_in_n(kind, q, step):
    # feasible lengths only; the count grows with n so its log does too
    if kind == "sb":
        n1, n2 = step * q, (step + 1) * q
    elif q % 2 == 0:
        n1, n2 = 2 * step, 2 * step + 2
    else:
        n1, n2 = step, step + 1
    assert approx_ln_count(kind, n2, q) > approx_ln_count(kind, n1, q)


# ---------------------------------------------------------------------------
# the closed forms that stated each class's constants per function, kept as
# the reference for the one (d, det) model per class


def ref_ln_count(kind, n, q):
    lnq = math.log(q)
    base = n * lnq
    if kind == "sb":
        return base - (q - 1) / 2.0 * math.log(2 * math.pi * n) + q / 2.0 * lnq
    if kind == "cb" or (kind == "cpb" and q <= 3):
        return base + 0.5 * math.log(6.0 / (math.pi * n * (q * q - 1)))
    if kind == "pb":
        if q % 2 == 0:
            return base + 0.5 * math.log(2.0 / (math.pi * n))
        return base + 0.5 * math.log(q / (2 * math.pi * n * (q - 1)))
    if q % 2 == 0:
        return base - math.log(math.pi * n) + 0.5 * math.log(48.0 / (q * q - 4))
    return base - math.log(math.pi * n) + 0.5 * math.log(
        12.0 * q * q / ((q * q - 1) * (q - 1) * (q - 3))
    )


def ref_redundancy(kind, n, q):
    lnq = math.log(q)
    lgn = math.log(n) / lnq

    def lg(x):
        return math.log(x) / lnq

    if kind == "sb":
        return (q - 1) / 2.0 * lgn + (q - 1) / 2.0 * lg(2 * math.pi) - q / 2.0
    if kind == "cb" or (kind == "cpb" and q <= 3):
        return 0.5 * lgn + 0.5 * lg(math.pi * (q * q - 1) / 6.0)
    if kind == "pb":
        if q % 2 == 0:
            return 0.5 * lgn + 0.5 * lg(math.pi / 2.0)
        return 0.5 * lgn + 0.5 * lg(2 * math.pi * (q - 1) / q)
    if q % 2 == 0:
        return lgn + lg(math.pi * math.sqrt((q * q - 4) / 48.0))
    return lgn + lg(math.pi * math.sqrt((q * q - 1) * (q - 1) * (q - 3) / (12.0 * q * q)))


def ref_anr(kind, q):
    if kind == "sb":
        return Fraction(q - 1, 2)
    return Fraction(1) if kind == "cpb" and q >= 4 else Fraction(1, 2)


def ref_gaussian_moments(n, q, mode):
    """(mean, variance) of the mode's statistic by summing over the alphabet."""
    vals = [
        {"charge": Fraction(s, 2), "half": Fraction(sign(s), 2), "unit": Fraction(sign(s))}[mode]
        for s in symbols(q)
    ]
    mean = sum(vals) / q
    return float(n * mean), float(n * (sum(v * v for v in vals) / q - mean * mean))


def sign(s):
    return (s > 0) - (s < 0)


REF_QS = list(range(2, 14)) + [101, 1001, 2001, 10**6]
REF_NS = list(range(1, 41)) + [999, 1000, 10**5, 10**7, 10**7 + 1, 10**9]


@pytest.mark.parametrize("kind", KINDS)
def test_model_matches_the_closed_forms(kind):
    checked = 0
    for q in REF_QS:
        assert anr(kind, q) == ref_anr(kind, q)
        for n in REF_NS + [q * m for m in (1, 2, 3, 1000, 10**7)]:
            if (n % q if kind == "sb" else q % 2 == 0 and n % 2):
                with pytest.raises(InfeasibleParamsError):
                    approx_redundancy(kind, n, q)
                continue
            assert math.isclose(approx_ln_count(kind, n, q), ref_ln_count(kind, n, q), rel_tol=1e-13)
            assert math.isclose(approx_redundancy(kind, n, q), ref_redundancy(kind, n, q), rel_tol=1e-13)
            checked += 1
    assert checked >= 5 * len(REF_QS)


def test_gaussian_spec_matches_the_alphabet_sums():
    for q in list(range(2, 30)) + [101, 1001]:
        for n in (1, 2, 7, 1000, 10**9, 2**60 + 1):
            for mode in ("charge", "half", "unit"):
                s = gaussian_spec(n, q, mode)
                assert (s.mu, s.sigma2) == ref_gaussian_moments(n, q, mode), (n, q, mode)


def test_gaussian_spec_needs_no_alphabet():
    s = gaussian_spec(10, 10**12, "unit")
    assert (s.mu, s.sigma2) == (0.0, 10.0)
    assert gaussian_spec(3, 10**12 + 1, "charge").sigma2 == 3 * ((10**12 + 1) ** 2 - 1) / 12


# ---------------------------------------------------------------------------
# the 1/n term: n * (exact - approx) redundancy tends to a constant of the
# step's cumulants (Edgeworth expansion of a lattice local limit theorem)


def edgeworth_c(steps):
    """c = (1/8) sum_ijkl kappa_ijkl S^-1_ij S^-1_kl of equally likely,
    centred steps, with S their covariance and kappa their fourth cumulant."""
    d = len(steps[0])

    def moment(*idx):
        return sum(math.prod(x[i] for i in idx) for x in steps) / len(steps)

    cov = [[moment(i, j) for j in range(d)] for i in range(d)]
    if d == 1:
        inv = [[1 / cov[0][0]]]
    else:
        det = cov[0][0] * cov[1][1] - cov[0][1] * cov[1][0]
        inv = [[cov[1][1] / det, -cov[0][1] / det], [-cov[1][0] / det, cov[0][0] / det]]
    total = Fraction(0)
    for i, j, k, l in itertools.product(range(d), repeat=4):
        kappa = moment(i, j, k, l) - cov[i][j] * cov[k][l] - cov[i][k] * cov[j][l] - cov[i][l] * cov[j][k]
        total += kappa * inv[i][j] * inv[k][l]
    return total / 8


def one_over_n_term(kind, q):
    """lim n * (exact - approx redundancy), from the step's moments."""
    if kind == "sb":  # the 1/(12 n) terms of Stirling's series
        return (q * q - 1) / (12 * math.log(q))
    half = Fraction(1, 2)
    polarity = half if q % 2 == 0 else Fraction(1)  # the pb sum moves by 2 at even q
    steps = [
        {"cb": (s * half,), "pb": (sign(s) * polarity,), "cpb": (s * half, Fraction(sign(s)))}[kind]
        for s in symbols(q)
    ]
    return -float(edgeworth_c(steps)) / math.log(q)


def test_one_over_n_term_of_binary_charge_balance():
    # C(n, n/2) = 2**n sqrt(2 / (pi n)) (1 - 1/(4n) + ...)
    assert one_over_n_term("cb", 2) == 0.25 / math.log(2)


ORACLE = [(kind, q) for kind in KINDS for q in range(4 if kind == "cpb" else 2, 10)]


@pytest.mark.parametrize("kind,q", ORACLE)
def test_redundancy_gap_follows_the_one_over_n_term(kind, q):
    prediction = one_over_n_term(kind, q)
    for n in (240, 960, 3840):
        if kind == "sb":
            n -= n % q
        gap = n * (exact_redundancy(kind, n, q) - approx_redundancy(kind, n, q))
        assert abs(gap - prediction) <= 0.05 / n, (kind, q, n, gap, prediction)
