"""Identity suite: formal checks are exact, numeric checks near machine precision."""

import pytest

from qbias import InvalidParameterError, rational, verify_identity

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
