"""Planar Poincare normal form near a focus, to fifth order.

The field at a Hopf point is rewritten as a complex scalar equation
z' = i*omega*z + sum a_jk z^j zbar^k and reduced order by order with
near-identity substitutions, leaving only the resonant terms c1 z|z|^2 and
c2 z|z|^4.  The engine is generic over the coefficient arithmetic: Python
complex numbers for floating work, or FieldComplex over Q(sqrt 2) for the
exact checkpoint at the generalized Hopf point.
"""
from __future__ import annotations

ORDER = 5


def _conj(x):
    return x.conjugate()


class Series:
    """Truncated polynomial in (z, zbar): dict[(j, k)] -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    def add(self, other) -> "Series":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return Series(out)

    def scale(self, s) -> "Series":
        return Series({m: c * s for m, c in self.terms.items()})

    def mul(self, other) -> "Series":
        out = {}
        for (j1, k1), c1 in self.terms.items():
            for (j2, k2), c2 in other.terms.items():
                j, k = j1 + j2, k1 + k2
                if j + k <= ORDER:
                    m = (j, k)
                    p = c1 * c2
                    out[m] = out[m] + p if m in out else p
        return Series(out)

    def conj(self) -> "Series":
        return Series({(k, j): _conj(c) for (j, k), c in self.terms.items()})

    def get(self, j, k, zero):
        return self.terms.get((j, k), zero)

    def drop(self, j, k) -> "Series":
        out = dict(self.terms)
        out.pop((j, k), None)
        return Series(out)

    def prune(self, is_negligible) -> "Series":
        return Series({m: c for m, c in self.terms.items() if not is_negligible(c)})


def _compose(rhs: Series, transform: Series, one) -> Series:
    """rhs(T(xi), conj(T)(xi)) truncated at ORDER."""
    tb = transform.conj()
    pow_t = [Series({(0, 0): one})]
    pow_tb = [Series({(0, 0): one})]
    for _ in range(ORDER):
        pow_t.append(pow_t[-1].mul(transform))
        pow_tb.append(pow_tb[-1].mul(tb))
    out = Series()
    for (j, k), c in rhs.terms.items():
        out = out.add(pow_t[j].mul(pow_tb[k]).scale(c))
    return out


def _geometric_inverse(den: Series, one) -> Series:
    """(1 + N)^-1 as a truncated geometric series."""
    n_terms = {m: c for m, c in den.terms.items() if m != (0, 0)}
    n = Series(n_terms)
    out = Series({(0, 0): one})
    term = Series({(0, 0): one})
    for _ in range(ORDER):
        term = term.mul(n).scale(-one)
        out = out.add(term)
    return out


def poincare_normal_form(quad_cubic: dict, i_omega, one, is_negligible):
    """Reduce z' = i*omega*z + nonlinear terms to resonant form.

    quad_cubic maps (j, k) -> coefficient of z^j zbar^k (monomial
    coefficients, not factorial-scaled).  i_omega is the linear coefficient
    in the working arithmetic; `one` its multiplicative unit;
    is_negligible(c) decides when a removed coefficient is numerically zero.
    Returns (c1, c2, residual_series): the z|z|^2 and z|z|^4 coefficients.
    """
    rhs = Series({(1, 0): i_omega})
    rhs = rhs.add(Series(dict(quad_cubic)))
    zero = i_omega - i_omega
    for m in range(2, ORDER + 1):
        for j in range(m, -1, -1):
            k = m - j
            if j - k == 1:
                continue
            coeff = rhs.get(j, k, zero)
            if is_negligible(coeff):
                continue
            h = coeff / (i_omega * (j - k - 1))
            transform = Series({(1, 0): one, (j, k): h})
            target = _compose(rhs, transform, one)
            den = Series({(0, 0): one})
            if j >= 1:
                den = den.add(Series({(j - 1, k): h * j}))
            den_inv = _geometric_inverse(den, one)
            correction = Series({(j, k - 1): h * k}) if k >= 1 else Series()
            new = target.mul(den_inv)
            for _ in range(ORDER + 2):
                prev = new
                new = target.add(correction.mul(new.conj()).scale(-one)).mul(den_inv)
                # each iterate is a function of the previous one alone, so a
                # repeat is the value every later pass would return as well
                if new.terms == prev.terms:
                    break
            rhs = new.drop(j, k).prune(is_negligible)
    c1 = rhs.get(2, 1, zero)
    c2 = rhs.get(3, 2, zero)
    return c1, c2, rhs
