"""Reference LP dual for the tests: the k x k solve that `_Tableau.dual`
ran before it read the dual off the final objective row.  The solver's
dual must equal it on every optimal basis."""

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
