"""Polynomial kernels and the Hermite-to-Laguerre basis change.

The polynomials are evaluated by their three-term recurrences, which stay
stable for n <= 50 and |x| <= 1e3.  The basis-change coefficients connect
the polar eigenfunctions Psi_{n,m} of the isotropic oscillator to the
Cartesian products H_{n1} H_{n2}; a two-dimensional quadrature oracle is
the arbiter for every sign and normalization convention in that table.
Its Gauss-Laguerre rule is built once per node count and cached, with
read-only arrays, in a bounded cache.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureFailure


def laguerre(n, alpha, x):
    """Generalized Laguerre polynomial L_n^alpha(x)."""
    if n < 0 or int(n) != n:
        raise DomainError(f"laguerre needs integer n >= 0, got {n}")
    if alpha <= -1:
        raise DomainError(f"laguerre needs alpha > -1, got {alpha}")
    if n == 0:
        return 1.0 + 0.0 * x
    prev = 1.0 + 0.0 * x
    cur = 1.0 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def hermite(n, x):
    """Physicists' Hermite polynomial H_n(x)."""
    if n < 0 or int(n) != n:
        raise DomainError(f"hermite needs integer n >= 0, got {n}")
    if n == 0:
        return 1.0 + 0.0 * x
    prev = 1.0 + 0.0 * x
    cur = 2.0 * x
    for k in range(1, n):
        prev, cur = cur, 2.0 * x * cur - 2.0 * k * prev
    return cur


def jacobi(n, a, b, x):
    """Jacobi polynomial P_n^{(a,b)}(x)."""
    if n < 0 or int(n) != n:
        raise DomainError(f"jacobi needs integer n >= 0, got {n}")
    if a <= -1 or b <= -1:
        raise DomainError(f"jacobi needs a, b > -1, got a={a}, b={b}")
    if n == 0:
        return 1.0 + 0.0 * x
    prev = 1.0 + 0.0 * x
    cur = 0.5 * (a - b + (a + b + 2.0) * x)
    for k in range(1, n):
        k1 = k + 1.0
        c1 = 2.0 * k1 * (k1 + a + b) * (2.0 * k + a + b)
        c2 = (2.0 * k + a + b + 1.0) * (a**2 - b**2)
        c3 = (2.0 * k + a + b) * (2.0 * k + a + b + 1.0) * (2.0 * k + a + b + 2.0)
        c4 = 2.0 * (k + a) * (k + b) * (2.0 * k + a + b + 2.0)
        prev, cur = cur, ((c2 + c3 * x) * cur - c4 * prev) / c1
    return cur


def hyp2F1_terminating(neg_k, b, c, z):
    """2F1(neg_k, b; c; z) as the exact finite Pochhammer sum.

    neg_k must be a nonpositive integer so the series terminates; c must
    not hit a nonpositive integer before the truncation order.
    """
    if int(neg_k) != neg_k or neg_k > 0:
        raise DomainError(f"first argument must be a nonpositive integer, got {neg_k}")
    kmax = int(-neg_k)
    total = 0.0
    term = 1.0
    for j in range(kmax + 1):
        if j > 0:
            cj = c + j - 1
            if cj == 0:
                raise DomainError(f"2F1 pole: c={c} hits a nonpositive integer at j={j}")
            term *= (neg_k + j - 1) * (b + j - 1) / cj * z / j
        total += term
    return total


# -- Appendix-style basis change -------------------------------------------

@dataclass(frozen=True)
class CoeffTable:
    n: int
    m: int
    entries: dict  # (n1, n2) -> complex


_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _ipow(e):
    # exact integer power of i, no complex exp/log roundoff
    return _I_POW[e % 4]


def _coeff(n, m, k):
    """Coefficient of H_k H_{N-k} in 2^N n! Psi_{n,m}, N = 2n+m, m >= 0.

    Two hypergeometric branches, k <= n and k > n.  The phases are fixed
    by the quadrature oracle, not taken on trust.
    """
    if k <= n:
        return _ipow(2 * n + m + k) * math.comb(n, k) * hyp2F1_terminating(
            -k, -m - n, n - k + 1, -1.0
        )
    return _ipow(m - k) * math.comb(m + n, k - n) * hyp2F1_terminating(
        k - 2 * n - m, -n, k - n + 1, -1.0
    )


def basis_coefficients(n, m):
    """CoeffTable for Psi_{n,m} = sum c^{n1,n2} H_{n1,n2}; m may be negative.

    Entries live on the diagonal n1 + n2 = 2n + |m| only.  Negative m is
    the complex conjugate of positive m.
    """
    if n < 0 or int(n) != n or int(m) != m:
        raise DomainError(f"basis_coefficients needs integer n >= 0, got n={n}, m={m}")
    conj = m < 0
    mm = abs(m)
    N = 2 * n + mm
    norm = (2.0**N) * math.factorial(n)
    entries = {}
    for k in range(N + 1):
        val = complex(_coeff(n, mm, k)) / norm
        if conj:
            val = val.conjugate()
        entries[(k, N - k)] = val
    return CoeffTable(n=n, m=m, entries=entries)


def _oscillator_mode(n, m, zeta, phi):
    """Polar oscillator eigenfunction Psi_{n,m}(zeta, phi), unnormalized."""
    mm = abs(m)
    rad = np.exp(-zeta / 2.0) * zeta ** (mm / 2.0) * laguerre(n, mm, zeta)
    return rad * np.exp(1j * m * phi)


def _cartesian_mode(n1, n2, zeta, phi):
    """H_{n1,n2} = e^{-zeta/2} H_{n1}(sqrt(zeta) cos phi) H_{n2}(sqrt(zeta) sin phi)."""
    s = np.sqrt(zeta)
    return np.exp(-zeta / 2.0) * hermite(n1, s * np.cos(phi)) * hermite(n2, s * np.sin(phi))


@functools.lru_cache(maxsize=16)
def _laguerre_rule(n_nodes):
    """Read-only (nodes, weights) of the n_nodes-point Gauss-Laguerre rule."""
    nodes, weights = np.polynomial.laguerre.laggauss(n_nodes)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def coefficient_oracle(n, m, n1, n2):
    """c^{n1,n2}_{n,m} via direct 2D quadrature against H_{n1,n2}.

    Gauss-Laguerre in zeta and the trapezoid rule in phi (exact for the
    trigonometric polynomials that occur).  The projection divides by the
    H_{n1,n2} norm 2pi * 2^{n1+n2} n1! n2!.  The grid is two broadcast
    axes, nodes[:, None] and phi[None, :]: e^zeta, e^{-zeta/2}, sqrt(zeta)
    and the Laguerre factor run on the nodes and e^{i m phi} on the angles;
    only the Hermite factors and the products fill the whole grid.
    """
    for v in (n, n1, n2):
        if v < 0 or int(v) != v:
            raise DomainError(f"oracle indices must be integers >= 0, got {(n, m, n1, n2)}")
    if int(m) != m:
        raise DomainError(f"oracle m must be an integer, got {m}")
    deg = 2 * n + abs(m) + n1 + n2
    n_zeta = max(48, deg + 8)
    n_phi = max(16, 8 * (deg + 1))
    nodes, weights = _laguerre_rule(n_zeta)
    zeta = nodes[:, None]
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)[None, :]
    # weight e^{-zeta} is the Gauss-Laguerre measure; the two e^{-zeta/2}
    # factors of the integrand supply exactly that
    integrand = (np.exp(zeta) * _cartesian_mode(n1, n2, zeta, phi)
                 * _oscillator_mode(n, m, zeta, phi))
    integral = np.sum(weights[:, None] * integrand) * (2.0 * math.pi / n_phi)
    norm = 2.0 * math.pi * 2.0 ** (n1 + n2) * math.factorial(n1) * math.factorial(n2)
    value = complex(integral) / norm
    if not np.isfinite(value.real) or not np.isfinite(value.imag):
        raise QuadratureFailure(f"oracle quadrature diverged for {(n, m, n1, n2)}")
    return value
