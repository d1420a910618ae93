"""The multiplicative characteristic class P and its deformation.

P(E) is the product of pi(c_1(L)) = 1 + b_1 c_1(L) + b_2 c_1(L)^2 + ... over
the line summands L of a virtual split bundle, times the product of
(1/pi)(c_1(L)) over its negative part.  With coefficients in the b-ring, the
b^alpha coefficient of P(E) is the alpha-indexed class of E, so every
partition-indexed Chern number of a variety is a coefficient of its
fundamental class.  The deformed class shifts every root by a formal
variable y; the residue pushforward is built from it.  Both are taken over
B(ZZ) only: a class in another theory is the image of this one under the
ring map of its group law (`fgl.b_transport`)."""

from __future__ import annotations

from .core_algebra import TruncatedSeries
from .chow_models import B, multiplicative_class


# ---------------------------------------------------------------------------
# the multiplicative class P and its deformation

def pi_series(order):
    """1 + b_1 y + b_2 y^2 + ... over B(ZZ), as a univariate truncated series
    in y."""
    return TruncatedSeries(B, ("y",), order, {(i,): B.gen(i) if i else B.one() for i in range(order)})


def total_P_deformed(E, y_max):
    """total_P of E with every line root u shifted to u + y (and trivial
    roots to y), as a y-polynomial truncated at y^y_max."""
    return multiplicative_class(E, pi_series(E.model.dim + y_max + 1), y_max)


def total_P(E):
    """Product of pi(c_1) over the lines of E, with 1/pi for the negative
    part; trivial summands contribute pi(0) = 1."""
    return total_P_deformed(E, 0)[0]
