"""Hilbert functions and series of Stanley-Reisner quotients, and the
binomial-coefficient normal forms behind the linearity value criteria.

The Hilbert function of A/I for squarefree I comes from the h-vector of
the associated complex (Stanley), which f_h_vectors reads off the
K-polynomial of the minimal nonfaces, i.e. of the generators, without
listing a face or a facet; a brute-force standard-monomial count provides
the cross-check.  The series numerator lives over (1-t)^dim, and h(1) > 0
puts a pole of order exactly dim at t = 1; rewriting it over (1-t)^codim,
possible exactly when codim >= dim, yields the integer coefficient vector
that plays the role of the Hilbert coefficients.
"""

from .complexes import f_h_vectors
from .errors import InputError
from .ideals import complex_of_ideal
from .util import Frozen, binom, poly_mul, poly_pow, poly_shift_basis, poly_trim


class HilbertData(Frozen):
    """Values, numerator over (1-t)^dim, and the (1-t)-basis coefficient vector."""

    __slots__ = ("values", "dim", "codim", "numerator", "coefficients", "width")

    def __init__(self, values, dim, codim, numerator, coefficients, width):
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "codim", codim)
        object.__setattr__(self, "numerator", tuple(numerator))
        object.__setattr__(
            self, "coefficients", tuple(coefficients) if coefficients is not None else None
        )
        object.__setattr__(self, "width", width)

    def __repr__(self):
        return "HilbertData(dim=%d, codim=%d, numerator=%s, c=%s)" % (
            self.dim,
            self.codim,
            list(self.numerator),
            list(self.coefficients) if self.coefficients is not None else None,
        )


def ideal_monomial_count(ideal, degree):
    """dim_k of the ideal's degree-d graded piece: its monomials of that degree, listed."""
    return len(ideal.monomials_of_degree(degree))


def standard_monomial_count(ideal, degree):
    """Number of degree-d monomials outside the ideal, by enumeration; an
    oracle in tests/test_hilbert.py (test_values_match_bruteforce), which src never calls."""
    return binom(degree + ideal.nvars - 1, degree) - ideal_monomial_count(ideal, degree)


def series_values_from_numerator(numerator, dim, horizon):
    """Power-series coefficients of numerator / (1-t)^dim up to the horizon."""
    out = []
    for s in range(horizon + 1):
        total = 0
        for i, a in enumerate(numerator):
            if i > s:
                break
            total += a * binom(s - i + dim - 1, s - i)
        out.append(total)
    return out


def hilbert_function(ideal, horizon=None):
    """HilbertData of A/I for a squarefree monomial ideal.

    The numerator N(t) of series = N(t) / (1-t)^dim is the h-vector of the
    Stanley-Reisner complex, and the values are read off that series.
    The coefficients are None when codim < dim (see _basis_coefficients).
    """
    if not ideal.squarefree:
        raise InputError("hilbert_function needs a squarefree ideal")
    if ideal.is_unit:
        raise InputError("unit ideal has no Stanley-Reisner quotient")
    n = ideal.nvars
    # Stanley: the Hilbert series of k[complex] is h(t) / (1-t)^dim
    fh = f_h_vectors(complex_of_ideal(ideal))
    dim = fh.dim + 1  # Krull dimension of the quotient
    codim = n - dim
    if horizon is None:
        horizon = n + (ideal.maxdeg() or 0) + 2
    numerator = poly_trim(list(fh.h))
    values = series_values_from_numerator(numerator, dim, horizon)
    coefficients, width = _basis_coefficients(numerator, dim, codim) if codim >= dim else (None, None)
    return HilbertData(values, dim, codim, numerator, coefficients, width)


def _basis_coefficients(numerator, dim, q):
    """Coefficients c with series = sum c_i / (1-t)^(q-i), i.e. the numerator
    rewritten over (1-t)^q and expanded in the (1-t)-power basis."""
    if q < dim:
        # the numerator is an h-vector, h(1) > 0, so the pole at t = 1 has
        # order exactly dim and (1-t)^(dim-q) never divides it
        raise InputError("series denominator exponent exceeds q")
    c = poly_shift_basis(poly_mul(list(numerator), poly_pow([1, -1], q - dim)))
    return c, len(c)


def binomial_form_fit(hdata, q=None):
    """Expansion of the Hilbert series in the basis 1/(1-t)^(q-i).

    Returns the integer coefficient list c, its width d, and verdict flags:
    whether d stays within q and whether sampled values reproduce.  Raises
    when the series cannot be written over (1-t)^q at all.
    """
    if q is None:
        q = hdata.codim
    c, width = _basis_coefficients(hdata.numerator, hdata.dim, q)
    checks = []
    for s in range(min(len(hdata.values), 6)):
        predicted = sum(ci * binom(s + q - i - 1, s) for i, ci in enumerate(c))
        checks.append(predicted == hdata.values[s])
    normalized = list(c)
    while normalized and normalized[0] == 0:
        normalized.pop(0)  # a leading zero is one less power of 1/(1-t)
    return {
        "c": tuple(c),
        "c_normalized": tuple(normalized),
        "d": width,
        "within_codim": width <= q,
        "values_reproduce": all(checks),
    }


def linear_value_criterion(ideal, q):
    """Single-value criterion at s = indeg: dim_k I_s == C(s + q - 1, s).

    q is the codimension (height) of the ideal, which the caller already
    holds as hilbert_function(radical).codim; a squarefree ideal is its own
    radical.  At s = indeg every degree-s monomial of I is a minimal
    generator, so dim_k I_s counts those (ideal_monomial_count is the
    enumerating oracle).
    """
    if ideal.is_zero:
        return False
    if ideal.is_unit:
        return True
    s = ideal.indeg()
    return ideal.degrees().count(s) == binom(s + q - 1, s)


def h_binomial_fit(h, q):
    """Least-width fit h_k = sum_l c_l * C(k + q - l - 1, k) below the zero tail.

    The cutoff is where the trailing zeros of h begin; the fit must be
    exact on every earlier value with width d <= q.  C(k + q - l - 1, k) is
    the t^k coefficient of 1/(1-t)^(q-l), so the fit asks that h(t)(1-t)^q
    and sum c_l (1-t)^l agree below t^cutoff: c is the (1-t)-basis
    expansion of that truncated product, unique and always integral, and
    d is its length.  Returns c, the cutoff, and the fit verdict.
    """
    h = list(h)
    cutoff = max((k + 1 for k, v in enumerate(h) if v), default=0)
    if cutoff == 0:
        return {"c": (), "cutoff": 0, "fits": True, "d": 0}
    c = poly_shift_basis(poly_mul(h[:cutoff], poly_pow([1, -1], q))[:cutoff])
    if len(c) > q:
        return {"c": None, "cutoff": cutoff, "fits": False, "d": None}
    return {"c": tuple(c), "cutoff": cutoff, "fits": True, "d": len(c)}
