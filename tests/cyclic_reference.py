"""The cyclic-form check as a per-triple scan: the reference that the
support-first int kernel behind antiflex.algebra.check_cyclic_form is
tested against."""

from itertools import product

from antiflex.algebra import Algebra, CheckReport, require_square, scan
from antiflex.linalg import ZERO, transpose


def reference_check_cyclic_form(alg: Algebra, omega,
                                all_failures=False) -> CheckReport:
    """Check w(x*y,z) + w(y*z,x) + w(z*x,y) = 0 over all basis triples.

    With w(u, v) = u^T omega v, w(e_i*e_j, e_k) is the dot product of the
    product row c[i][j] with column k of omega, taken over the nonzeros of
    that column alone.
    """
    n = alg.dimension
    require_square("check_cyclic_form", "omega", omega, n)
    c = alg.product
    cols = [[(p, x) for p, x in enumerate(col) if x]
            for col in transpose(omega)]

    def w(row, k):
        acc = ZERO
        for p, x in cols[k]:
            if row[p]:
                acc += row[p] * x
        return acc

    return scan("cyclic-form", (
        ("cyclic-form", (i, j, k), [w(c[i][j], k) + w(c[j][k], i)
                                    + w(c[k][i], j)])
        for i, j, k in product(range(n), repeat=3)), all_failures)
