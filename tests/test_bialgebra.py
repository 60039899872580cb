from fractions import Fraction
from itertools import product

import pytest

import antiflex.bialgebra as bialgebra
import antiflex.bimodule as antiflex_bimodule
import antiflex.cli as antiflex_cli
import antiflex.matched as antiflex_matched
from antiflex.algebra import PreAlgebra, PreconditionError, \
    check_identities, scan
from antiflex.bialgebra import (
    Bialgebra, bialgebra_routes, check_bialgebra_conditions,
    check_bialgebra_hom, check_dual_pre_via_rmatrix, comult_from_products,
    dual_bialgebra, dual_products_from_comult, verify_bialgebra,
)
from antiflex.bimodule import check_af_bimodule, check_pre_bimodule, \
    regular_af_bimodule, regular_pre_bimodule
from antiflex.coboundary import special_case_bialgebra
from antiflex.matched import check_af_matched, check_pre_matched, \
    PreMatchedPair, _dual_pair, dual_pre_matched, standard_dual_matched
from antiflex.operators import canonical_solution
from antiflex.linalg import eye, zeros_t3

import bialgebra_reference
from bialgebra_reference import co_identity_residuals, condition_residuals
from helpers import CORPUS, all_corpus_pre, bump_t3, induced_not_dendriform, \
    matrix_units, not_dendriform_bialgebras, rand_t3, seeded, \
    split_bialgebra
from antiflex.algebra import from_associative


def _zero_bialgebra(n=2):
    return Bialgebra(PreAlgebra(n, zeros_t3(n), zeros_t3(n)),
                     zeros_t3(n), zeros_t3(n))


def _canonical_bialgebras():
    out = []
    for name in ("q1", "qt2", "t3"):
        palg = from_associative(CORPUS[name], "succ-left")
        double, r = canonical_solution(palg)
        out.append(special_case_bialgebra(double, r, "two"))
    return out


def test_zero_bialgebra_passes():
    assert verify_bialgebra(_zero_bialgebra()).passed


def test_dual_products_round_trip():
    rng = seeded(41)
    dp, ds = rand_t3(rng, 3), rand_t3(rng, 3)
    dual = dual_products_from_comult(dp, ds)
    back_p, back_s = comult_from_products(dual)
    assert back_p == dp and back_s == ds


def test_rmatrix_route_agreement():
    rng = seeded(43)
    agree = 0
    for _ in range(100):
        dp, ds = rand_t3(rng, 2), rand_t3(rng, 2)
        via = check_dual_pre_via_rmatrix(dp, ds)
        direct = check_identities(dual_products_from_comult(dp, ds),
                                  "pre-anti-flexible").passed
        assert via.passed == direct
        assert via == scan("dual-pre-via-comult",
                           co_identity_residuals(dp, ds))
        agree += 1
    assert agree == 100


def _sparse_t3(rng, n, density):
    return [[[Fraction(rng.randint(-2, 2)) if rng.random() < density
              else Fraction(0) for _ in range(n)] for _ in range(n)]
            for _ in range(n)]


def test_co_identities_match_reference_on_random_comultiplications():
    # the co-identities are coordinates of the dual products' identities:
    # their reports equal a scan of the hand-written tensor expressions
    rng = seeded(47)
    failing = 0
    for n in (1, 2, 3, 4):
        for density in (0.15, 0.4, 1.0):
            dp, ds = _sparse_t3(rng, n, density), _sparse_t3(rng, n, density)
            for every in (False, True):
                got = check_dual_pre_via_rmatrix(dp, ds, every)
                assert got == scan("dual-pre-via-comult",
                                   co_identity_residuals(dp, ds), every)
                failing += not got.passed
    assert failing > 16


def test_conditions_match_reference_on_random_comultiplications():
    # each condition is a pairing of the AF double's identity: the reports
    # equal a scan of the hand-written matrix expressions, on passing bases
    # of dimensions 1-4 with random comultiplications
    rng = seeded(53)
    failing = total = 0
    bases = all_corpus_pre()[::2]
    assert {p.dimension for p in bases} == {1, 2, 3, 4}
    for palg in bases:
        n = palg.dimension
        for density in (0.15, 0.4, 1.0):
            dp, ds = _sparse_t3(rng, n, density), _sparse_t3(rng, n, density)
            for every in (False, True):
                got = check_bialgebra_conditions(palg, dp, ds, every)
                assert got == scan("bialgebra-conditions",
                                   condition_residuals(palg, dp, ds), every)
                failing += not got.passed
                total += 1
    assert 2 * failing > total


def test_conditions_match_reference_on_crosses():
    # the products of one bialgebra with the comultiplications of another:
    # failing at several pairs, with every failure listed
    for a, b in ((("qt2", "one"), ("t3", "two", "prec-right")),
                 (("ut2", "two", "prec-right"), ("ut2", "one"))):
        a, b = split_bialgebra(*a), split_bialgebra(*b)
        every = check_bialgebra_conditions(a.palg, b.delta_prec,
                                           b.delta_succ, True)
        assert len(every.failures) > 1
        assert every == scan("bialgebra-conditions", condition_residuals(
            a.palg, b.delta_prec, b.delta_succ), True)


def test_conditions_match_reference_off_dendriform():
    # the case-one and case-two bialgebras on the NOT_DENDRIFORM doubles,
    # whose bases are not dendriform, pass every route, and the products
    # of each with the comultiplications of each of its dimension give the
    # reference's report, failing on 8 of the 20 crosses
    bialgebras = not_dendriform_bialgebras()
    failing = 0
    for a in bialgebras:
        assert verify_bialgebra(a).passed
        for b in bialgebras:
            if a.dimension != b.dimension:
                continue
            for every in (False, True):
                got = check_bialgebra_conditions(a.palg, b.delta_prec,
                                                 b.delta_succ, every)
                assert got == scan("bialgebra-conditions",
                                   condition_residuals(a.palg, b.delta_prec,
                                                       b.delta_succ), every)
            failing += not got.passed
    assert failing == 8


def test_verify_builds_the_double_and_checks_the_base_once(monkeypatch):
    calls = {"double": 0, "pre double": 0, "evaluator": 0, "base": 0,
             "semidirect": 0}

    def counted(name, f, subject=None):
        def wrapper(*args, **kwargs):
            if subject is None or args[0] is subject:
                calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    b = split_bialgebra("qt2", "one")
    monkeypatch.setattr(bialgebra, "build_af_double",
                        counted("double", bialgebra.build_af_double))
    monkeypatch.setattr(bialgebra, "build_pre_double",
                        counted("pre double", bialgebra.build_pre_double))
    monkeypatch.setattr(bialgebra, "basis_residuals",
                        counted("evaluator", bialgebra.basis_residuals))
    monkeypatch.setattr(bialgebra, "check_identities",
                        counted("base", bialgebra.check_identities, b.palg))
    # no semidirect product is built, under any name it is imported by
    for module in (antiflex_bimodule, antiflex_cli, antiflex_matched):
        for name in ("semidirect_af", "semidirect_pre"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(
                    "semidirect", getattr(module, name)))
    assert verify_bialgebra(b).passed
    # one evaluator of the dual products (the co-identities) and one of
    # the AF double (routes 1-3); route 4 checks the pre double whole
    assert calls == {"double": 1, "pre double": 1, "evaluator": 2,
                     "base": 1, "semidirect": 0}
    dual = dual_products_from_comult(b.delta_prec, b.delta_succ)
    assert check_af_matched(standard_dual_matched(b.palg, dual)).passed
    assert check_pre_matched(dual_pre_matched(b.palg, dual)).passed
    assert calls["semidirect"] == 0
    # the counters see a semidirect product where one is built
    assert check_af_bimodule(regular_af_bimodule(CORPUS["qt2"])).passed
    assert check_pre_bimodule(regular_pre_bimodule(b.palg)).passed
    assert calls["semidirect"] == 2


def _crosses():
    """Products of one bialgebra with the comultiplications of another, of
    the same dimension; all but the first fail."""
    qt2, qt2_pr = split_bialgebra("qt2", "one"), \
        split_bialgebra("qt2", "one", "prec-right")
    pairs = ((qt2, split_bialgebra("qt2", "two")),
             (split_bialgebra("t3", "one"), qt2_pr), (qt2, qt2_pr),
             (qt2_pr, qt2),
             (split_bialgebra("t3", "two", "prec-right"),
              split_bialgebra("qt2", "two")))
    return [Bialgebra(a.palg, b.delta_prec, b.delta_succ) for a, b in pairs]


def test_route_4_is_the_pre_matched_check():
    # route 4 scans the pre double of the eight-map dual pair whole; by the
    # matched-pair theorem its verdict is the pre matched check of that
    # pair, on canonical, perturbed and crossed bialgebras
    rng = seeded(59)
    subjects = _canonical_bialgebras() + _crosses()
    for b in _canonical_bialgebras():
        n = b.dimension
        for _ in range(6):
            at = [rng.randrange(n) for _ in range(3)]
            amount = rng.choice((-1, 1))
            subjects += [
                Bialgebra(b.palg, bump_t3(b.delta_prec, *at, amount),
                          b.delta_succ),
                Bialgebra(b.palg, b.delta_prec,
                          bump_t3(b.delta_succ, *at, amount))]
    seen = {True: 0, False: 0}
    for b in subjects:
        dual = dual_products_from_comult(b.delta_prec, b.delta_succ)
        if not check_identities(dual, "pre-anti-flexible").passed:
            continue
        route4 = bialgebra_routes(b)[1][3]
        assert route4 == check_pre_matched(
            _dual_pair(PreMatchedPair, b.palg, dual)).passed
        seen[route4] += 1
    assert seen[True] >= 3 and seen[False] >= 4


def test_canonical_bialgebra_all_routes_pass():
    for b in _canonical_bialgebras():
        routes = bialgebra_routes(b)[1]
        assert routes == (True, True, True, True)


def test_ut2_double_case_one_all_routes_pass():
    palg = from_associative(CORPUS["ut2"], "succ-left")
    double, r = canonical_solution(palg)
    b = special_case_bialgebra(double, r, "one")
    assert b.dimension == 6
    assert bialgebra_routes(b)[1] == (True, True, True, True)


def test_conditions_perturbation_fails_together():
    b = _canonical_bialgebras()[1]
    dp = [[list(row) for row in m] for m in b.delta_prec]
    dp[0][0][0] += Fraction(1)
    conds = check_bialgebra_conditions(b.palg, dp, b.delta_succ)
    dual_ok = check_identities(dual_products_from_comult(dp, b.delta_succ),
                               "pre-anti-flexible").passed
    joint = conds.passed and dual_ok
    assert not joint
    if dual_ok:
        perturbed = Bialgebra(b.palg, dp, b.delta_succ)
        assert bialgebra_routes(perturbed)[1] == \
            (False, False, False, False)


def test_hom_identity_and_zero():
    b = _canonical_bialgebras()[1]
    n = b.dimension
    assert check_bialgebra_hom(eye(n), b, b).passed
    z = _zero_bialgebra()
    zero_map = [[Fraction(0)] * 2 for _ in range(2)]
    assert check_bialgebra_hom(zero_map, z, z).passed


def test_hom_rejects_inexact_or_misshapen_psi():
    b = _canonical_bialgebras()[1]
    n = b.dimension
    psi = [[Fraction(0)] * n for _ in range(n)]
    psi[0][1] = 0.5
    with pytest.raises(PreconditionError, match=r"check_bialgebra_hom: "
                       r"psi\[0\]\[1\] is 0.5, not an int or Fraction"):
        check_bialgebra_hom(psi, b, b)
    with pytest.raises(PreconditionError, match="check_bialgebra_hom: psi "
                       "must be %d x %d" % (n, n)):
        check_bialgebra_hom(psi[1:], b, b)


def test_hom_basis_permutation():
    b = _canonical_bialgebras()[0]  # dim-2 double of the dim-1 base
    n = b.dimension
    perm = [1, 0]
    psi = [[Fraction(1) if perm[j] == i else Fraction(0)
            for j in range(n)] for i in range(n)]

    def relabel_t3(t):
        return [[[t[perm[i]][perm[j]][perm[k]] for k in range(n)]
                 for j in range(n)] for i in range(n)]

    relabeled = Bialgebra(
        PreAlgebra(n, relabel_t3(b.palg.prec), relabel_t3(b.palg.succ)),
        relabel_t3(b.delta_prec), relabel_t3(b.delta_succ))
    assert check_bialgebra_hom(psi, b, relabeled).passed


def test_hom_dual_side_matches_the_comultiplication_path():
    # the dual side read off the product side gives the reports of the
    # beta comultiplications built and compared as matrices, at rational
    # psi with denominators 2-7, the identity and zero
    rng = seeded(257)
    subjects = [split_bialgebra(name, case, split)
                for name in ("q1", "qt2", "t3")
                for case, split in (("one", "succ-left"),
                                    ("two", "prec-right"))]
    subjects += not_dendriform_bialgebras()
    double, r = canonical_solution(induced_not_dendriform()[0])
    subjects += [special_case_bialgebra(double, r, case)
                 for case in ("one", "two")]
    failing = 0
    for src, dst in product(subjects, repeat=2):
        nA, nB = src.dimension, dst.dimension
        psis = [[[Fraction(rng.randint(-3, 3), rng.randint(2, 7))
                  if rng.random() < 0.4 else Fraction(0)
                  for _ in range(nA)] for _ in range(nB)],
                [[Fraction(0)] * nA for _ in range(nB)]]
        if nA == nB:
            psis.append(eye(nA))
        for psi in psis:
            for every in (False, True):
                report = check_bialgebra_hom(psi, src, dst, every)
                assert report == bialgebra_reference.check_bialgebra_hom(
                    psi, src, dst, every)
                failing += not report.passed
    assert failing


def test_dual_bialgebra_involution():
    for b in _canonical_bialgebras():
        d = dual_bialgebra(b)
        assert verify_bialgebra(d).passed
        dd = dual_bialgebra(d)
        assert dd.palg.prec == [list(map(list, m)) for m in b.palg.prec] or \
            dd.palg.prec == b.palg.prec
        assert [[list(r) for r in m] for m in dd.delta_prec] == \
            [[list(r) for r in m] for m in b.delta_prec]
        assert [[list(r) for r in m] for m in dd.delta_succ] == \
            [[list(r) for r in m] for m in b.delta_succ]


def test_pairing_identities_on_verified_instance():
    # <f_i ? f_j, e_k> = <f_i (x) f_j, D_?(e_k)> for both half-products,
    # and the mirrored identity through the dual bialgebra
    for b in _canonical_bialgebras()[:2]:
        n = b.dimension
        dual = dual_products_from_comult(b.delta_prec, b.delta_succ)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert dual.prec[i][j][k] == b.delta_prec[k][i][j]
                    assert dual.succ[i][j][k] == b.delta_succ[k][i][j]
        d = dual_bialgebra(b)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d.delta_prec[k][i][j] == b.palg.prec[i][j][k]
                    assert d.delta_succ[k][i][j] == b.palg.succ[i][j][k]


def test_verify_bialgebra_on_m3():
    # the case-one bialgebra of the canonical solution on the succ-left
    # splitting of the 3 x 3 matrices: pre-algebra dimension 18, double
    # dimension 36, and all four routes pass
    m2 = matrix_units(2)
    assert m2.product == CORPUS["m2"].product
    double, r = canonical_solution(from_associative(matrix_units(3),
                                                    "succ-left"))
    b = special_case_bialgebra(double, r, "one")
    assert b.dimension == 18
    assert bialgebra_routes(b)[1] == (True,) * 4
