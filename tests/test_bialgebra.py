from fractions import Fraction

from antiflex.algebra import PreAlgebra, check_identities
from antiflex.bialgebra import (
    Bialgebra, check_bialgebra_conditions, check_bialgebra_hom,
    check_dual_pre_via_rmatrix, comult_from_products, dual_bialgebra,
    dual_products_from_comult, verify_bialgebra,
)
from antiflex.coboundary import special_case_bialgebra
from antiflex.operators import canonical_solution
from antiflex.linalg import eye, zeros_t3

from helpers import DIM2_PRE, CORPUS, rand_t3, seeded
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
        via = check_dual_pre_via_rmatrix(dp, ds).passed
        direct = check_identities(dual_products_from_comult(dp, ds),
                                  "pre-anti-flexible").passed
        assert via == direct
        agree += 1
    assert agree == 100


def test_canonical_bialgebra_all_routes_pass():
    for b in _canonical_bialgebras():
        routes = verify_bialgebra(b, _return_routes=True)
        assert routes == (True, True, True, True)


def test_ut2_double_case_one_all_routes_pass():
    palg = from_associative(CORPUS["ut2"], "succ-left")
    double, r = canonical_solution(palg)
    b = special_case_bialgebra(double, r, "one")
    assert b.dimension == 6
    assert verify_bialgebra(b, _return_routes=True) == \
        (True, True, True, True)


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
        assert verify_bialgebra(perturbed, _return_routes=True) == \
            (False, False, False, False)


def test_hom_identity_and_zero():
    b = _canonical_bialgebras()[1]
    n = b.dimension
    assert check_bialgebra_hom(eye(n), b, b).passed
    z = _zero_bialgebra()
    zero_map = [[Fraction(0)] * 2 for _ in range(2)]
    assert check_bialgebra_hom(zero_map, z, z).passed


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
