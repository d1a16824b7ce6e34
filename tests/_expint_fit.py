"""Fit the coefficient table _E1_FIT of src/dephaser/_expint_fits.py with mpmath and print it as Python source.

usage: python tests/_expint_fit.py > table.py   (about 10 s)

Each piece of [1, 56) is z = 2^(e-3) (k + 1/2 + s), s in [-1/2, 1/2), e = 1, ..., 6 and k = 4, ..., 7 up to z = 50.
Its polynomial in s is mpmath's chebyfit at 50 digits, of the least degree whose value at 101 points of the piece
is within 0.02 ulp, rounded to floats; the comment above it gives the largest error of its Horner evaluation in
floats over 2001 points of the piece and the float just below its upper edge, in ulp of the value.
"""

import math

import mpmath

ULP = 2.0**-52


def e1_scaled(z):
    """e^z E1(z) in mpmath."""
    return mpmath.exp(z) * mpmath.e1(z)


def pieces():
    """(e, k) of every piece, in table order."""
    return [(e, k) for e in range(1, 7) for k in range(4, 8) if math.ldexp(k, e - 3) < 50.0]


def fit(f, e, k, degree=None):
    """The float coefficients of the piece (e, k), highest degree first: of the given degree, else of the least."""
    with mpmath.workdps(50):
        scale = mpmath.mpf(2) ** (e - 3)

        def g(s):
            return f(scale * (k + mpmath.mpf(0.5) + s))

        if degree is not None:
            return tuple(float(c) for c in mpmath.chebyfit(g, [-0.5, 0.5], degree + 1))
        check = [(s, g(s)) for s in mpmath.linspace(-0.5, 0.5, 101)]
        for n in range(6, 30):
            poly = mpmath.chebyfit(g, [-0.5, 0.5], n)
            if max(abs(mpmath.polyval(poly, s) - v) / abs(v) for s, v in check) < 0.02 * ULP:
                return tuple(float(c) for c in poly)
    raise ArithmeticError(f"no degree below 29 fits the piece e = {e}, k = {k}")


def horner(coefs, s):
    p = 0.0
    for c in coefs:
        p = p * s + c
    return p


def worst_ulp(f, e, k, coefs, samples=2000):
    """Largest error of the float Horner evaluation of coefs on the piece (e, k), in ulp of the value."""
    zs = [math.ldexp(k + i / samples, e - 3) for i in range(samples)]
    zs.append(math.nextafter(math.ldexp(k + 1, e - 3), 0.0))
    worst = 0.0
    with mpmath.workdps(40):
        for z in zs:
            want = f(z)
            worst = max(worst, float(abs(horner(coefs, math.ldexp(z, 3 - e) - k - 0.5) - want) / abs(want)) / ULP)
    return worst


def main():
    print("_E1_FIT = (")
    for e, k in pieces():
        coefs = fit(e1_scaled, e, k)
        lo, hi = math.ldexp(k, e - 3), math.ldexp(k + 1, e - 3)
        print(f"    # [{lo:g}, {hi:g}): degree {len(coefs) - 1}, {worst_ulp(e1_scaled, e, k, coefs):.2f} ulp")
        line = "    ("
        for c in coefs:
            item = f"{c!r}, "
            if len(line) + len(item) > 120:
                print(line.rstrip())
                line = "        "
            line += item
        print(line.rstrip().rstrip(",") + "),")
    print(")")


if __name__ == "__main__":
    main()
