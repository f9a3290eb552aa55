"""Identity suite: formal checks are exact, numeric checks near machine precision."""

import random

import pytest

from qbias import InvalidParameterError, rational, verify_identity
from qbias.identities import _FORMAL
from qbias.series import TruncatedSeries, pochhammer_product
from reference import add

# (2, 20): the common shift s(s-1)/2 = 190 lies beyond the order N = 150
JACOBI_GRID = [(1, 1), (1, 2), (-1, 2), (2, 3), (-3, 1), (rational(-2, 3), 4), (2, 20)]

FINE_SUBS = [
    {"alpha": (1, 2), "gamma": (1, 3), "z": (1, 1)},
    {"alpha": (2, 1), "gamma": (1, 2), "z": (1, 1)},
    {"alpha": (1, 1), "gamma": (rational(1, 2), 2), "z": (1, 2)},
    {"alpha": (1, 2), "gamma": (1, 2), "z": (-2, 1)},
]

HEINE_SUBS = [
    {"alpha": (1, 1), "beta": (1, 1), "gamma": (1, 2), "z": (1, 1)},
    {"alpha": (1, 2), "beta": (1, 1), "gamma": (1, 2), "z": (1, 1)},
    {"alpha": (2, 1), "beta": (1, 1), "gamma": (1, 3), "z": (1, 2)},
    {"alpha": (1, 1), "beta": (1, 1), "gamma": (1, 2), "z": (3, 1)},
]

POINTS = [(0.2, 0.5), (0.15, 0.4), (0.1, 0.3)]


@pytest.mark.parametrize("c,s", JACOBI_GRID)
def test_jacobi_formal(c, s):
    rep = verify_identity("jacobi", {"c": c, "s": s}, N=150)
    assert rep.passed and rep.max_discrepancy == "0"


def test_jacobi_rejects_zero_order():
    with pytest.raises(InvalidParameterError):
        verify_identity("jacobi", {"c": 1, "s": 0}, N=50)
    with pytest.raises(InvalidParameterError):
        verify_identity("jacobi", {"c": 0, "s": 1}, N=50)


@pytest.mark.parametrize("sub", FINE_SUBS)
def test_fine_formal(sub):
    rep = verify_identity("fine", sub, N=100)
    assert rep.passed and rep.max_discrepancy == "0"


def test_fine_rejects_negative_derived_order():
    with pytest.raises(InvalidParameterError, match="alpha\\*z/gamma"):
        verify_identity("fine", {"alpha": (1, 1), "gamma": (1, 3), "z": (1, 1)}, N=40)


@pytest.mark.parametrize("sub", HEINE_SUBS)
def test_heine_formal(sub):
    rep = verify_identity("heine", sub, N=100)
    assert rep.passed and rep.max_discrepancy == "0"


def test_heine_rejects_flat_gamma_beta():
    with pytest.raises(InvalidParameterError, match="gamma/beta"):
        verify_identity(
            "heine", {"alpha": (1, 1), "beta": (1, 2), "gamma": (1, 2), "z": (1, 1)}, N=40)


def test_theta_reciprocal_numeric():
    rep = verify_identity("theta_reciprocal", {"points": POINTS})
    assert rep.passed
    assert float(rep.max_discrepancy) < 1e-10


def test_kronecker_numeric():
    rep = verify_identity("kronecker", {"points": POINTS})
    assert rep.passed
    assert float(rep.max_discrepancy) < 1e-10


def test_numeric_point_validation():
    with pytest.raises(InvalidParameterError):
        verify_identity("kronecker", {"points": [(0.5, 0.2)]})
    with pytest.raises(InvalidParameterError):
        verify_identity("theta_reciprocal", {"points": []})


def test_unknown_identity():
    with pytest.raises(InvalidParameterError):
        verify_identity("quintuple", {}, N=10)


# -- the exact lists against a reference built from TruncatedSeries ----------


def _one_minus(c, e, N):
    """1 - c q^e as a rational series mod q^{N+1}."""
    f = TruncatedSeries([1] + [0] * N)
    if e <= N:
        f.coeffs[e] -= rational(c)
    return f


def _hyper_ref(num, den, z, N, start=None):
    """start * sum_n prod (a;q)_n / prod (b;q)_n z^n, one factor at a time
    through TruncatedSeries * and invert."""
    (cz, sz) = z
    term = start or TruncatedSeries([1] + [0] * N)
    out = term
    for n in range(N // sz):
        for c, s in num:
            term = term * _one_minus(c, s + n, N)
        for c, s in den:
            term = term * _one_minus(c, s + n, N).invert()
        term = term * TruncatedSeries([0] * sz + [cz] + [0] * (N - sz))
        out = add(out, term)
    return out.coeffs


def _inf(c, s, N):
    """(c q^s; q)_inf as a rational series."""
    return pochhammer_product(rational(c), -1, s, 1, N)


def _jacobi_ref(p, N):
    c, s = rational(p["c"]), p["s"]
    lhs = TruncatedSeries([c**-s] + [0] * N)
    for j in range(s):
        lhs = lhs * _one_minus(-c, j, N)
    lhs = lhs * _inf(-1 / c, 1, N) * _inf(-c, s, N) * _inf(1, 1, N)
    rhs = [rational(0)] * (N + 1)
    for n in range(-s - N - 2, N + 2):
        e = (n + s) * (n + s - 1) // 2  # zeta^n q^{n(n-1)/2}, shifted by q^{s(s-1)/2}
        if e <= N:
            rhs[e] += c**n
    return lhs.coeffs, rhs


def _fine_ref(p, N):
    (ca, sa), (cg, sg), (cz, sz) = p["alpha"], p["gamma"], p["z"]
    cu = rational(ca) * cz / cg
    lhs = _hyper_ref([(ca, sa)], [(cg, sg + 1)], (cz, sz), N,
                     _one_minus(cg, sg, N).invert())
    rhs = _hyper_ref([(cu, sa + sz - sg)], [(cz, sz + 1)], (cg, sg), N,
                     _one_minus(cz, sz, N).invert())
    return lhs, rhs


def _heine_ref(p, N):
    (ca, sa), (cb, sb), (cg, sg), (cz, sz) = (p[k] for k in ("alpha", "beta", "gamma", "z"))
    cv, cw = rational(cg) / cb, rational(ca) * cb * cz / cg
    lhs = _hyper_ref([(ca, sa), (cb, sb)], [(cg, sg), (1, 1)], (cz, sz), N)
    inner = TruncatedSeries(_hyper_ref(
        [(cw, sa + sb + sz - sg), (cb, sb)], [(cb * cz, sb + sz), (1, 1)], (cv, sg - sb), N))
    rhs = (inner * _inf(cv, sg - sb, N) * _inf(cb * cz, sb + sz, N)
           * _inf(cg, sg, N).invert() * _inf(cz, sz, N).invert())
    return lhs, rhs.coeffs


_REFS = {"jacobi": _jacobi_ref, "fine": _fine_ref, "heine": _heine_ref}


def _draws(count=6, seed=2024):
    """Seeded substitutions c q^s with c = +-1, +-2, +-3 over 1, 2, 3 and s
    in 1..4, kept inside each identity's formal region."""
    rng = random.Random(seed)

    def mono():
        c = rational(rng.choice((1, -1)) * rng.randint(1, 3), rng.randint(1, 3))
        return c, rng.randint(1, 4)

    draws = []
    for N in (20, 60):
        for _ in range(count):
            c, s = mono()
            draws.append(("jacobi", {"c": c, "s": s}, N))
        for name, keys in (("fine", ("alpha", "gamma", "z")),
                           ("heine", ("alpha", "beta", "gamma", "z"))):
            made = 0
            while made < count:
                p = {k: mono() for k in keys}
                orders = {k: s for k, (_, s) in p.items()}
                if orders["alpha"] + orders["z"] < orders["gamma"]:
                    continue
                if name == "heine" and not orders["beta"] < orders["gamma"] <= (
                        orders["alpha"] + orders["beta"] + orders["z"]):
                    continue
                draws.append((name, p, N))
                made += 1
    return draws


@pytest.mark.parametrize("name,params,N", _draws())
def test_formal_lists_equal_the_series_reference(name, params, N):
    lhs, rhs = _FORMAL[name](params, N)
    ref_lhs, ref_rhs = _REFS[name](params, N)
    assert ref_lhs == ref_rhs
    assert lhs == ref_lhs and rhs == ref_rhs


@pytest.mark.parametrize("name,params", [
    ("heine", {"alpha": (1, 1), "beta": (1, 1), "gamma": (1, 2), "z": (1, 1)}),
    ("heine", {"alpha": (2, 1), "beta": (-1, 1), "gamma": (-1, 3), "z": (1, 2)}),
    ("fine", {"alpha": (2, 1), "gamma": (1, 2), "z": (1, 1)}),
    ("jacobi", {"c": -1, "s": 2}),
])
def test_integral_substitutions_stay_on_ints(name, params):
    lhs, rhs = _FORMAL[name](params, 60)
    assert {type(v) for v in lhs + rhs} == {int}


def test_rational_substitution_passes_on_fractions():
    sub = {"alpha": (rational(1, 2), 1), "beta": (rational(-2, 3), 1),
           "gamma": (3, 2), "z": (rational(1, 3), 1)}
    lhs, rhs = _FORMAL["heine"](sub, 40)
    assert any(not isinstance(v, int) for v in lhs + rhs)
    rep = verify_identity("heine", sub, N=40)
    assert rep.passed and rep.max_discrepancy == "0"
