"""Shared helpers: a float Gauss-Legendre quadrature oracle for exact integrals."""

from __future__ import annotations

import math

from logfano.exact import PiecewisePoly, Poly


def _legendre(n: int, x: float) -> tuple[float, float]:
    """(P_n(x), P_n'(x)) by the three-term recurrence j*P_j = (2j - 1)*x*P_(j-1) - (j - 1)*P_(j-2), |x| < 1."""
    prev, p = 1.0, x
    for j in range(2, n + 1):
        prev, p = p, ((2 * j - 1) * x * p - (j - 1) * prev) / j
    return p, n * (x * p - prev) / (x * x - 1)


def _gauss_legendre(n: int) -> tuple[list[float], list[float]]:
    """The n Gauss-Legendre nodes on [-1, 1], ascending, and their weights 2/((1 - x^2) P_n'(x)^2).

    Each node is a root of P_n, found by Newton's method from the estimate cos(pi*(k - 1/4)/(n + 1/2)),
    which lies close enough to the k-th largest root for the iteration to converge to it.
    """
    nodes, weights = [], []
    for k in range(n, 0, -1):
        x = math.cos(math.pi * (k - 0.25) / (n + 0.5))
        for _ in range(100):
            p, dp = _legendre(n, x)
            step = p / dp
            x -= step
            if abs(step) <= 1e-16:
                break
        _, dp = _legendre(n, x)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


# n Gauss-Legendre nodes integrate every polynomial of degree <= 2n - 1 exactly, up to rounding
_NODES, _WEIGHTS = _gauss_legendre(8)


def gauss_poly(p: Poly, a, b) -> float:
    """Gauss-Legendre integral of a polynomial of degree <= 15 on [a, b], in float arithmetic."""
    assert len(p.coeffs) <= 2 * len(_NODES), "degree beyond the rule's exactness"
    a, b = float(a), float(b)
    total = 0.0
    for node, weight in zip(_NODES, _WEIGHTS):
        x = (b - a) / 2 * node + (a + b) / 2
        acc = 0.0
        for c in reversed(p.coeffs):
            acc = acc * x + float(c)
        total += weight * acc
    return (b - a) / 2 * total


def gauss_piecewise(f: PiecewisePoly) -> float:
    """The sum of gauss_poly over the pieces, each on its own [breakpoint, next breakpoint]."""
    return sum(gauss_poly(p, f.breakpoints[i], f.breakpoints[i + 1]) for i, p in enumerate(f.pieces))


def rel_err(exact, approx) -> float:
    exact = float(exact)
    if exact == 0.0:
        return abs(approx)
    return abs(approx - exact) / abs(exact)
