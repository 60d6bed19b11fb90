import math

import numpy as np
import pytest
from scipy import special as sps

from koenigs.errors import DomainError
from koenigs.specfun import (
    _cartesian_mode,
    _laguerre_rule,
    _oscillator_mode,
    basis_coefficients,
    coefficient_oracle,
    hermite,
    hyp2F1_terminating,
    jacobi,
    laguerre,
)


def test_laguerre_matches_scipy():
    rng = np.random.default_rng(2)
    for n in range(6):
        for alpha in (0.0, 0.5, 1.0, 2.5):
            x = rng.uniform(0.0, 8.0, 10)
            mine = np.array([laguerre(n, alpha, xi) for xi in x])
            ref = sps.eval_genlaguerre(n, alpha, x)
            assert np.allclose(mine, ref, rtol=1e-12, atol=1e-12)


def test_hermite_matches_scipy():
    rng = np.random.default_rng(4)
    x = rng.uniform(-3.0, 3.0, 10)
    for n in range(7):
        mine = np.array([hermite(n, xi) for xi in x])
        ref = sps.eval_hermite(n, x)
        assert np.allclose(mine, ref, rtol=1e-11, atol=1e-9)


def test_jacobi_matches_scipy():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1.0, 1.0, 10)
    for n in range(6):
        for a, b in ((0.0, 0.0), (0.5, 1.5), (2.0, 1.0)):
            mine = np.array([jacobi(n, a, b, xi) for xi in x])
            ref = sps.eval_jacobi(n, a, b, x)
            assert np.allclose(mine, ref, rtol=1e-11, atol=1e-11)


def test_terminating_2f1_against_direct_sum():
    # finite Pochhammer sum as the oracle
    def direct(k, b, c, z):
        total, term = 0.0, 1.0
        for j in range(k + 1):
            if j > 0:
                term *= (-k + j - 1) * (b + j - 1) / ((c + j - 1) * j) * z
            total += term
        return total

    rng = np.random.default_rng(8)
    for k in range(5):
        for _ in range(5):
            b = rng.uniform(-4.0, 4.0)
            c = rng.uniform(1.0, 5.0)
            z = rng.uniform(-2.0, 2.0)
            assert hyp2F1_terminating(-k, b, c, z) == pytest.approx(
                direct(k, b, c, z), rel=1e-12, abs=1e-12
            )


def test_2f1_requires_terminating_series():
    with pytest.raises(DomainError):
        hyp2F1_terminating(0.5, 1.0, 2.0, 0.3)


def test_2f1_rejects_interior_pole():
    with pytest.raises(DomainError):
        hyp2F1_terminating(-3, 1.0, -1.0, 0.5)


def test_degree_selection_rule():
    for n in range(3):
        for m in range(4):
            table = basis_coefficients(n, m)
            for (n1, n2) in table.entries:
                assert n1 + n2 == 2 * n + m


def test_coefficients_match_oracle_small():
    for n, m in ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2)):
        table = basis_coefficients(n, m).entries
        for (n1, n2), c in table.items():
            assert c == pytest.approx(coefficient_oracle(n, m, n1, n2), abs=1e-10)


def test_ground_state_coefficients_exact():
    # one-quantum tables have the closed values 1/2 and i/2
    table = basis_coefficients(0, 1).entries
    assert table[(1, 0)] == pytest.approx(0.5, abs=1e-15)
    assert table[(0, 1)] == pytest.approx(0.5j, abs=1e-15)


def test_negative_m_is_conjugate():
    for n, m in ((0, 2), (1, 1)):
        plus = basis_coefficients(n, m).entries
        minus = basis_coefficients(n, -m).entries
        assert set(plus) == set(minus)
        for key, val in plus.items():
            assert minus[key] == pytest.approx(val.conjugate(), abs=1e-15)


def test_oracle_off_diagonal_zero():
    assert abs(coefficient_oracle(0, 1, 0, 0)) < 1e-12
    assert abs(coefficient_oracle(1, 0, 3, 1)) < 1e-12


def test_generating_identity_spot():
    lam, mu = 0.37, -0.61
    n, m = 2, 1
    table = basis_coefficients(n, m).entries
    total = sum((lam**n1) * (mu**n2) * (2.0 ** (n1 + n2)) * c
                for (n1, n2), c in table.items())
    target = ((-1.0) ** n * (lam - 1j * mu) ** n * (lam + 1j * mu) ** (n + m)
              / math.factorial(n))
    assert total == pytest.approx(target, abs=1e-12)


def test_laguerre_rule_cache_is_read_only_and_bounded():
    nodes, weights = _laguerre_rule(48)
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert _laguerre_rule.cache_info().maxsize is not None


def test_oracle_same_with_cold_and_warm_rule():
    cases = ((0, 1, 1, 0), (1, -1, 2, 1), (3, 3, 4, 5), (2, 0, 1, 3))
    _laguerre_rule.cache_clear()
    cold = [coefficient_oracle(*c) for c in cases]
    assert _laguerre_rule.cache_info().currsize > 0
    warm = [coefficient_oracle(*c) for c in cases]
    assert cold == warm


def _meshgrid_oracle(n, m, n1, n2):
    # the oracle's quadrature with every factor evaluated on the full grid
    deg = 2 * n + abs(m) + n1 + n2
    n_phi = max(16, 8 * (deg + 1))
    nodes, weights = _laguerre_rule(max(48, deg + 8))
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    Z, P = np.meshgrid(nodes, phi, indexing="ij")
    integrand = np.exp(Z) * _cartesian_mode(n1, n2, Z, P) * _oscillator_mode(n, m, Z, P)
    integral = np.sum(weights[:, None] * integrand) * (2.0 * math.pi / n_phi)
    norm = 2.0 * math.pi * 2.0 ** (n1 + n2) * math.factorial(n1) * math.factorial(n2)
    return complex(integral) / norm


def test_broadcast_oracle_matches_meshgrid_bitwise():
    for n in range(4):
        for m in range(-(6 - 2 * n), 7 - 2 * n):
            N = 2 * n + abs(m)
            for total in (N - 2, N, N + 2):
                for n1 in range(total + 1):
                    args = (n, m, n1, total - n1)
                    assert coefficient_oracle(*args) == _meshgrid_oracle(*args), args
