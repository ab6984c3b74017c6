"""Exact reference values for the float inputs that the tests hand to bicorr.

A float is a dyadic rational, so the floats of one input are integers over one common power of
two, and every sum and product of them is exact in integers; no rounding enters.  A value is
returned as a ``Fraction``, and a float result is judged against it by ``within``, which compares
squares, so no root is taken.  Only the standard library is used.
"""

from fractions import Fraction


def concurrence_squared(psi) -> Fraction:
    """The concurrence squared, 4|psi0 psi3 - psi1 psi2|^2 / ||psi||^4, of four float or complex
    amplitudes, exactly: the value for the state psi / ||psi|| that the amplitudes name.

    Each real and imaginary part is n / 2**k; all eight are taken over the largest 2**k, which
    cancels, as both sides are of degree 4 in psi.
    """
    ratios = [x.as_integer_ratio() for z in psi for x in (z.real, z.imag)]
    top = max([d for _, d in ratios]).bit_length()
    r0, i0, r1, i1, r2, i2, r3, i3 = [n << (top - d.bit_length()) for n, d in ratios]
    det_re = r0 * r3 - i0 * i3 - r1 * r2 + i1 * i2
    det_im = r0 * i3 + i0 * r3 - r1 * i2 - i1 * r2
    norm2 = r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3 + i0 * i0 + i1 * i1 + i2 * i2 + i3 * i3
    return Fraction(4 * (det_re * det_re + det_im * det_im), norm2 * norm2)


def within(value: float, square: Fraction, bound: Fraction) -> bool:
    """Whether |value - sqrt(square)| <= bound, decided exactly on squares, for value >= 0.

    With value = a / p and bound = b / q, value -+ bound = (a q -+ b p) / (p q): integers only.
    """
    a, p = value.as_integer_ratio()
    b, q = bound.numerator, bound.denominator
    low, high, scale = a * q - b * p, a * q + b * p, (p * q) ** 2
    n, d = square.numerator, square.denominator
    return n * scale <= high * high * d and (low <= 0 or low * low * d <= n * scale)
