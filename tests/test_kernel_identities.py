"""Identities between the kernels that stay separate.

The placed-product kernel (the coboundary families and PAFYBE), the
identity kernel (route 1 and the co-identities, read off the AF double and
the dual products), the O-operator kernel (the operator form) and the
cyclic-form kernel each compute their residuals on their own.  Where two
of them compute the same residual, up to a sign and an index order, the
tests here make them check each other, at every index and not only in
the verdict.  Each residual compared is the full all_failures stream.
"""

from antiflex.algebra import PreAlgebra, check_identities
from antiflex.bialgebra import check_bialgebra_conditions, \
    check_dual_pre_via_rmatrix
from antiflex.coboundary import RPair, check_coboundary_conditions, \
    check_pafybe, coboundary_bialgebra
from antiflex.matched import AfMatchedPair, _dual_pair, build_af_double, \
    omega_double_check
from antiflex.operators import operator_form_check

from helpers import NOT_DENDRIFORM, all_corpus_pre, induced_not_dendriform, \
    rand_frac, rand_t3, seeded


def _subjects():
    """The corpus splittings, NOT_DENDRIFORM and the pre-algebras induced
    by Rota-Baxter maps on non-associative anti-flexible algebras that are
    not dendriform."""
    return all_corpus_pre() + NOT_DENDRIFORM + list(induced_not_dendriform())


def _rational_mat(rng, n):
    return [[rand_frac(rng, 2) for _ in range(n)] for _ in range(n)]


def _neg(res):
    return [_neg(x) for x in res] if isinstance(res, list) else -res


def _failures(report):
    return {(label, idx): res for label, idx, res in report.failures}


# each coboundary family as (the family it equals on the coboundary
# bialgebra, sign)
_COBOUNDARY_AS = {"coboundary-1": ("bialgebra-1", -1),
                  "coboundary-2": ("bialgebra-3", 1),
                  "coboundary-3": ("bialgebra-2p", -1),
                  "coboundary-4": ("bialgebra-4p", 1),
                  "dual-structure-1": ("co-identity-m", 1)}


def test_coboundary_families_are_route_1_and_co_identity_m():
    # on the coboundary bialgebra of an r-pair, four coboundary families
    # are route 1's conditions at every (i, j), and dual-structure-1 is
    # co-identity-m at every i; dual-structure-2 and co-identity-lr are
    # not pinned: they differ where another family fails
    rng = seeded(241)
    failing = 0
    for palg in _subjects():
        n = palg.dimension
        for _ in range(3 if n < 4 else 1):
            rp = RPair(_rational_mat(rng, n), _rational_mat(rng, n))
            b = coboundary_bialgebra(palg, rp)
            mapped = {}
            for (label, idx), res in _failures(check_coboundary_conditions(
                    palg, rp, True)).items():
                if label in _COBOUNDARY_AS:
                    other, sign = _COBOUNDARY_AS[label]
                    mapped[other, idx] = res if sign > 0 else _neg(res)
            other = _failures(check_bialgebra_conditions(
                palg, b.delta_prec, b.delta_succ, True))
            other.update((key, res) for key, res in _failures(
                check_dual_pre_via_rmatrix(b.delta_prec, b.delta_succ,
                                           True)).items()
                         if key[0] == "co-identity-m")
            assert mapped == other
            failing += bool(mapped)
    assert failing > 50


def test_operator_form_is_the_pafybe_residual():
    # for symmetric r, operator-form at (i, j), coordinate q, is the
    # PAFYBE residual at [j][q][i]
    rng = seeded(243)
    failing = 0
    for palg in _subjects():
        n = palg.dimension
        for _ in range(3):
            upper = _rational_mat(rng, n)
            r = [[upper[min(i, j)][max(i, j)] for j in range(n)]
                 for i in range(n)]
            form = _failures(operator_form_check(palg, r, True))
            pafybe = check_pafybe(palg, r)
            t = pafybe.witness[2] if not pafybe.passed else None
            want = {}
            for i in range(n):
                for j in range(n):
                    res = [t[j][q][i] for q in range(n)] if t else []
                    if any(res):
                        want["operator-form", (i, j)] = res
            assert form == want
            failing += not pafybe.passed
    assert failing > 50


def test_canonical_skew_form_is_closed_on_every_standard_dual_double():
    # closedness holds for any two products on A and A*, pre-anti-flexible
    # or not: the skew form pairs each structure constant with its dual
    rng = seeded(245)
    not_pre_af = 0
    for trial in range(80):
        n = 1 + trial % 3
        p, q = (PreAlgebra(n, rand_t3(rng, n), rand_t3(rng, n))
                for _ in range(2))
        if trial % 2:
            q = PreAlgebra(n, *([[[x / rng.randint(2, 7) for x in row]
                                  for row in plane] for plane in t]
                                for t in (q.prec, q.succ)))
        d = build_af_double(_dual_pair(AfMatchedPair, p, q))
        assert omega_double_check(d, True).passed
        not_pre_af += not check_identities(p, "pre-anti-flexible").passed
    assert not_pre_af > 40


def test_induced_subjects_leave_the_dendriform_regime():
    for palg in induced_not_dendriform():
        assert check_identities(palg, "pre-anti-flexible").passed
        assert not check_identities(palg, "dendriform").passed
