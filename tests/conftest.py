"""Shared helpers: a float Gauss-Legendre quadrature oracle for exact integrals."""

from __future__ import annotations

import numpy as np

from logfano.exact import PiecewisePoly, Poly

# n Gauss-Legendre nodes integrate every polynomial of degree <= 2n - 1 exactly, up to rounding
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(8)


def gauss_poly(p: Poly, a, b) -> float:
    """Gauss-Legendre integral of a polynomial of degree <= 15 on [a, b], in float arithmetic."""
    assert len(p.coeffs) <= 2 * len(_NODES), "degree beyond the rule's exactness"
    a, b = float(a), float(b)
    x = (b - a) / 2 * _NODES + (a + b) / 2
    acc = np.zeros_like(x)
    for c in reversed(p.coeffs):
        acc = acc * x + float(c)
    return float((b - a) / 2 * (_WEIGHTS @ acc))


def gauss_piecewise(f: PiecewisePoly) -> float:
    """The sum of gauss_poly over the pieces, each on its own [breakpoint, next breakpoint]."""
    return sum(gauss_poly(p, f.breakpoints[i], f.breakpoints[i + 1]) for i, p in enumerate(f.pieces))


def rel_err(exact, approx) -> float:
    exact = float(exact)
    if exact == 0.0:
        return abs(approx)
    return abs(approx - exact) / abs(exact)
