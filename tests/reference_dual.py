"""Reference LP dual and certificate check for the tests: a k x k
solve of an optimal basis's dual in Fractions, and the Fraction form of
the check that `_verify_certificate` makes in ints.  The dual that the
tests read off a final objective row, mu_r = s_r o_r / (S d), must equal
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
    sum_r mu_r a[r][j] = obj[j].  With row r of a equal to ints_r / s_r
    (`Polyhedron._scaled_rows`), the k x k system is solved in ints,
    sum_r nu_r ints_r[j] = obj[j], and mu_r = s_r nu_r.
    """
    n = tab.n
    scales, ints = poly._scaled_rows
    free_cols = [col for col in tab.basis if col < n]
    carriers = sorted(set(range(tab.m))
                      - {col - n for col in tab.basis if col >= n})
    nu = solve_square([[ints[r][j] for r in carriers] for j in free_cols],
                      [obj[j] for j in free_cols])
    if nu is None:
        raise LpInternalError("singular optimal basis")
    mu = [ZERO] * tab.m
    for r, v in zip(carriers, nu):
        mu[r] = scales[r] * v
    return tuple(mu)


def certifies(poly, obj, value, mu) -> bool:
    """Whether mu >= 0, mu^T A = obj and mu^T rhs = value on poly's data.

    Row i of [A | rhs] is ints_i / s_i, so with nu_i = mu_i / s_i over one
    common denominator D the check is sum (D nu_i) ints_i = D (obj | value)
    in ints.
    """
    scales, rows = poly._scaled_rows
    terms = [(u.numerator, u.denominator * s, row)
             for u, s, row in zip(mu, scales, rows) if u]
    den = lcm(*[q for _, q, _ in terms])
    combo = [0] * (poly.dim + 1)
    for num, q, row in terms:
        f = num * (den // q)
        combo = [c + f * a for c, a in zip(combo, row)]
    target = list(obj) + [value]
    return (len(mu) == poly.num_rows and all(num > 0 for num, _, _ in terms)
            and all(c * t.denominator == den * t.numerator
                    for c, t in zip(combo, target)))
