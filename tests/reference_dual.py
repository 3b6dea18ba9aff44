"""Reference LP dual and certificate check for the tests: a k x k
solve of an optimal basis's dual in Fractions, and the Fraction form of
the check that `_verify_certificate` makes in ints.  The dual that the
tests read off a final objective row, mu_r = o_r / (S d), must equal
the first on every optimal basis, and the solver's check must agree
with the second."""

from math import lcm

from rbo.lp import LpInternalError
from rbo.numeric import ZERO
from rbo.oracle import solve_square


def dual(tab, poly, obj) -> tuple:
    """The dual mu for obj of tab's optimal basis, one entry per row.

    A basic slack forces its row's mu to 0, so only the k rows whose
    slack is nonbasic carry mu, k the number of basic free columns j:
    sum_r mu_r ints_r[j] = obj[j] on the integer rows ints_r
    (`Polyhedron.rows`), a k x k system in ints.
    """
    n = tab.n
    ints = poly.rows
    free_cols = [col for col in tab.basis if col < n]
    carriers = sorted(set(range(tab.m))
                      - {col - n for col in tab.basis if col >= n})
    nu = solve_square([[ints[r][j] for r in carriers] for j in free_cols],
                      [obj[j] for j in free_cols])
    if nu is None:
        raise LpInternalError("singular optimal basis")
    mu = [ZERO] * tab.m
    for r, v in zip(carriers, nu):
        mu[r] = v
    return tuple(mu)


def certifies(poly, obj, value, mu) -> bool:
    """Whether mu >= 0 and sum_i mu_i ints_i = (obj | value) on poly's
    integer rows ints_i: over one common denominator D of mu, sum (D
    mu_i) ints_i = D (obj | value) in ints.
    """
    terms = [(u.numerator, u.denominator, row)
             for u, row in zip(mu, poly.rows) if u]
    den = lcm(*[q for _, q, _ in terms])
    combo = [0] * (poly.dim + 1)
    for num, q, row in terms:
        f = num * (den // q)
        combo = [c + f * a for c, a in zip(combo, row)]
    target = list(obj) + [value]
    return (len(mu) == poly.num_rows and all(num > 0 for num, _, _ in terms)
            and all(c * t.denominator == den * t.numerator
                    for c, t in zip(combo, target)))
