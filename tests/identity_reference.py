"""The identity check as a per-tuple scan of the element-level residuals on
basis vectors: the reference that the composition evaluator behind
antiflex.algebra.check_identities is tested against."""

from antiflex.algebra import CheckReport, identity_residuals
from antiflex.linalg import basis_vec, vec_is_zero


def reference_check_identities(subject, kind, all_failures=False):
    """check_identities through identity_residuals, tuple by tuple."""
    n = subject.dimension
    basis = [basis_vec(n, i) for i in range(n)]
    failures = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for label, res in identity_residuals(
                        subject, kind, basis[i], basis[j], basis[k]):
                    if not vec_is_zero(res):
                        failures.append((label, (i, j, k), res))
                        if not all_failures:
                            return CheckReport(False, kind, failures[0],
                                               (failures[0],))
    if not failures:
        return CheckReport(True, kind)
    return CheckReport(False, kind, failures[0], tuple(failures))
