"""The Hermite-basis map from Fock states |n1, n2> to exact ``PolyGauss``
functions, which lets tests compare Fock matrices with symbolic operators."""

from fractions import Fraction

from bateman.field import Coeff
from bateman.operators import PolyGauss, poly_add_term


def hermite_coefficients(n: int) -> dict[int, int]:
    """Integer coefficients of the physicists' Hermite polynomial H_n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev: dict[int, int] = {0: 1}
    if n == 0:
        return prev
    cur: dict[int, int] = {1: 2}
    for m in range(1, n):
        nxt: dict[int, int] = {}
        for p, c in cur.items():
            nxt[p + 1] = nxt.get(p + 1, 0) + 2 * c
        for p, c in prev.items():
            nxt[p] = nxt.get(p, 0) - 2 * m * c
        prev, cur = cur, {p: c for p, c in nxt.items() if c}
    return cur


def hermite_state(coeffs: dict[tuple[int, int], Coeff | int | Fraction]) -> PolyGauss:
    """sum c[(n1,n2)] H_n1(x1) H_n2(x2) exp(-(x1^2+x2^2)/2), exactly."""
    poly: dict[tuple[int, int], Coeff] = {}
    for (n1, n2), c in coeffs.items():
        c = Coeff.coerce(c)
        h1 = hermite_coefficients(n1)
        h2 = hermite_coefficients(n2)
        for p1, c1 in h1.items():
            for p2, c2 in h2.items():
                poly_add_term(poly, (p1, p2), c * (c1 * c2))
    return PolyGauss(2, poly, [[1, 0], [0, 1]])


def hermite_decompose(f: PolyGauss) -> dict[tuple[int, int], Coeff]:
    """Exact expansion of f in the unnormalized Hermite-Gaussian product basis.

    Requires the standard weight exp(-(x1^2+x2^2)/2).  Works by peeling the
    top-degree monomial: the leading coefficient of H_n1 H_n2 is 2^(n1+n2).
    """
    expected = PolyGauss.standard_vacuum(2)
    if not f.same_weight(expected):
        raise ValueError("decomposition needs the standard Gaussian weight")
    residue = f
    out: dict[tuple[int, int], Coeff] = {}
    while not residue.is_zero():
        idx = max(residue.poly, key=lambda i: (sum(i), i))
        coeff = residue.poly[idx] * Fraction(1, 2 ** sum(idx))
        out[idx] = coeff
        residue = residue - hermite_state({idx: coeff})
    return out
