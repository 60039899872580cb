from dataclasses import fields, replace
from fractions import Fraction

import pytest

from antiflex.algebra import Algebra, PreAlgebra, PreconditionError, \
    check_cyclic_form, check_identities, scan, underlying_algebra
from antiflex.matched import (
    AfMatchedPair, PreMatchedPair, build_af_double, build_pre_double,
    check_af_matched, check_pre_matched, condition_residuals,
    dual_pre_matched, omega_double_check, omega_matrix,
    standard_dual_matched,
)
from antiflex.bimodule import derive_bimodule, regular_pre_bimodule
from antiflex.operators import canonical_solution
from antiflex.linalg import mat_add, mat_neg, transpose, \
    vec_is_zero, zeros_mat, zeros_t3

from helpers import CORPUS, DIM2_PRE, NOT_DENDRIFORM, all_corpus_pre, \
    basis_vec, bialgebra_pairs, bump_t3, cross_pairs, \
    induced_not_dendriform, multiplication_operators, non_associative_af, \
    not_dendriform_bialgebras, rand_mat, rand_t3, seeded
from matched_reference import double_residuals, reference_residuals, \
    separate_path_check


def _zero_pre(n):
    return PreAlgebra(n, zeros_t3(n), zeros_t3(n))


def _zero_actions_pair(alg, m=1):
    zeroB = Algebra(m, zeros_t3(m))
    zA = tuple(zeros_mat(m) for _ in range(alg.dimension))
    zB = tuple(zeros_mat(alg.dimension) for _ in range(m))
    return AfMatchedPair(alg, zeroB, zA, zA, zB, zB)


# pre-anti-flexible subjects whose underlying algebras are not associative
NON_ASSOCIATIVE_PRE = NOT_DENDRIFORM + list(induced_not_dendriform()[:5])


def test_zero_second_factor_passes():
    for alg in [CORPUS["qt2"]] + list(non_associative_af()[:5]):
        mp = _zero_actions_pair(alg)
        assert check_af_matched(mp).passed
        d = build_af_double(mp)
        assert check_identities(d, "anti-flexible").passed


def test_standard_dual_with_zero_dual_passes():
    for palg in DIM2_PRE:
        mp = standard_dual_matched(palg, _zero_pre(palg.dimension))
        assert check_af_matched(mp).passed
        d = build_af_double(mp)
        assert check_identities(d, "anti-flexible").passed
        assert omega_double_check(d).passed


def test_af_double_equivalence_random():
    # the double is anti-flexible exactly when the compatibility conditions
    # hold (component bimodules kept valid via the regular dual actions,
    # compatibility broken by perturbing one action family)
    seen = {True: 0, False: 0}
    duals = [_zero_pre(2)] + DIM2_PRE
    for palg in DIM2_PRE:
        for dualp in duals:
            mp = standard_dual_matched(palg, dualp)
            ok = check_af_matched(mp).passed
            double_ok = check_identities(build_af_double(mp),
                                         "anti-flexible").passed
            assert ok == double_ok
            seen[ok] += 1
    assert seen[True] and seen[False]


def test_pre_matched_from_dual_actions():
    for palg in DIM2_PRE:
        pmp = dual_pre_matched(palg, _zero_pre(2))
        assert check_pre_matched(pmp).passed
        dd = build_pre_double(pmp)
        assert check_identities(dd, "pre-anti-flexible").passed


def test_dual_pre_matched_actions_are_the_dual_full_bimodules():
    # each side's four actions are those of the dual-full bimodule of the
    # regular bimodule: (R*_dot, -L*_prec, -R*_succ, L*_dot)
    pres = all_corpus_pre() + NON_ASSOCIATIVE_PRE
    for palg, companion in zip(pres, pres[1:] + pres[:1]):
        if palg.dimension != companion.dimension:
            continue
        pmp = dual_pre_matched(palg, companion)
        for side, p in (("A", palg), ("B", companion)):
            full = derive_bimodule(regular_pre_bimodule(p), "dual-full")
            assert tuple(getattr(pmp, name + "_" + side) for name in
                         ("ls", "rs", "lp", "rp")) == \
                (full.l_succ, full.r_succ, full.l_prec, full.r_prec)
            ops = multiplication_operators(p)
            for got, ops_name in ((full.r_succ, "L_prec"),
                                  (full.l_prec, "R_succ")):
                assert got == tuple([[-v for v in row] for row in
                                     transpose(m)] for m in ops[ops_name])


def test_pre_matched_sign_flip_fails():
    palg = DIM2_PRE[0]
    pmp = dual_pre_matched(palg, _zero_pre(2))
    from antiflex.matched import PreMatchedPair
    flipped = PreMatchedPair(
        pmp.palgA, pmp.palgB,
        tuple(mat_neg(m) for m in pmp.ls_A), pmp.rs_A, pmp.lp_A, pmp.rp_A,
        pmp.ls_B, pmp.rs_B, pmp.lp_B, pmp.rp_B)
    assert not check_identities(build_pre_double(flipped),
                                "pre-anti-flexible").passed


def summed_af_matched(mp: PreMatchedPair) -> AfMatchedPair:
    """The matched pair of underlying algebras with the summed action maps."""
    return AfMatchedPair(
        underlying_algebra(mp.palgA), underlying_algebra(mp.palgB),
        tuple(mat_add(p, s) for p, s in zip(mp.lp_A, mp.ls_A)),
        tuple(mat_add(p, s) for p, s in zip(mp.rp_A, mp.rs_A)),
        tuple(mat_add(p, s) for p, s in zip(mp.lp_B, mp.ls_B)),
        tuple(mat_add(p, s) for p, s in zip(mp.rp_B, mp.rs_B)))


def test_pre_double_underlying_equals_af_double():
    for palg in DIM2_PRE:
        pmp = dual_pre_matched(palg, _zero_pre(2))
        dd = build_pre_double(pmp)
        summed = summed_af_matched(pmp)
        assert underlying_algebra(dd).product == \
            build_af_double(summed).product


def test_omega_double_check_basics():
    zero = Algebra(4, zeros_t3(4))
    assert omega_double_check(zero).passed
    # skew-symmetry of the form itself
    n = 2
    om = omega_matrix(n)
    for i in range(2 * n):
        for j in range(2 * n):
            assert om[i][j] == -om[j][i]
    assert all(om[i][j] == 0 for i in range(n) for j in range(n))
    assert all(om[n + i][n + j] == 0 for i in range(n) for j in range(n))


def test_omega_equivalence_with_matched():
    # on standard dual candidates the skew-form closedness verdict agrees
    # with the matched-pair verdict
    rng = seeded(57)
    seen = {True: 0, False: 0}
    for trial in range(40):
        palg = DIM2_PRE[trial % len(DIM2_PRE)]
        dual = PreAlgebra(2, [[[Fraction(0)] * 2] * 2] * 2
                          if trial % 2 else
                          [[[rng.choice([0, 1]) * Fraction(1)
                             for _ in range(2)] for _ in range(2)]
                           for _ in range(2)],
                          zeros_t3(2))
        if not check_identities(dual, "pre-anti-flexible").passed:
            continue
        mp = standard_dual_matched(palg, dual)
        ok = check_af_matched(mp).passed
        d = build_af_double(mp)
        omega_ok = (check_identities(d, "anti-flexible").passed
                    and omega_double_check(d).passed)
        assert ok == omega_ok
        seen[ok] += 1
    assert seen[True]


# ---------------------------------------------------------------------------
# the condition table against the conditions written out term for term
# ---------------------------------------------------------------------------

def _random_pairs(rng):
    """Pairs with random products and actions: neither the factors, nor the
    bimodules, nor the compatibility conditions hold."""
    def maps(n, m):  # one m x m matrix per basis element of an n-space
        return [[[Fraction(rng.randint(-2, 2)) for _ in range(m)]
                 for _ in range(m)] for _ in range(n)]

    out = []
    for nA, nB in ((2, 3), (3, 2), (1, 2)):
        out.append(AfMatchedPair(
            Algebra(nA, rand_t3(rng, nA, 2)), Algebra(nB, rand_t3(rng, nB, 2)),
            maps(nA, nB), maps(nA, nB), maps(nB, nA), maps(nB, nA)))
        out.append(PreMatchedPair(
            PreAlgebra(nA, rand_t3(rng, nA), rand_t3(rng, nA)),
            PreAlgebra(nB, rand_t3(rng, nB), rand_t3(rng, nB)),
            *[maps(nA, nB) for _ in range(4)],
            *[maps(nB, nA) for _ in range(4)]))
    return out


def test_condition_table_matches_reference_on_random_pairs():
    rng = seeded(71)
    for _ in range(2):
        for mp in _random_pairs(rng):
            table = list(condition_residuals(mp, double_residuals(mp)))
            reference = reference_residuals(mp)
            assert table == [f for f in reference if not vec_is_zero(f[2])]
            assert 2 * len(table) > len(reference)


def _failing_against_reference(pairs):
    """How many of the af and pre matched pairs fail, after checking that
    each public report equals that of a scan over the reference
    residuals."""
    failing = 0
    for mp, pmp in pairs:
        for pair, check, name in ((mp, check_af_matched, "af-matched"),
                                  (pmp, check_pre_matched, "pre-matched")):
            expected = [(label, idx, res) for label, idx, res
                        in reference_residuals(pair) if not vec_is_zero(res)]
            every = check(pair, all_failures=True)
            assert every == scan(name, expected, True)
            if expected:
                assert check(pair) == scan(name, expected)
                failing += 1
    return failing


def test_checkers_match_reference_on_bialgebra_pairs():
    # the af and the pre pair of each failing cross fail
    assert _failing_against_reference(bialgebra_pairs()) == 4


def test_checkers_match_reference_off_dendriform():
    # the pairs of the case-one and case-two bialgebras on the
    # NOT_DENDRIFORM doubles, whose bases are not dendriform, and of their
    # same-dimension crosses: the af and the pre pair of 8 of the 20 fail
    bialgebras = not_dendriform_bialgebras()
    pairs = [cross_pairs(a, b) for a in bialgebras for b in bialgebras
             if a.dimension == b.dimension]
    assert _failing_against_reference(pairs) == 16


def test_checkers_match_reference_on_non_associative_dual_pairs():
    # the dual pairs of the non-associative pre-algebras with each other,
    # and on their canonical doubles with the zero and the regular
    # companion; the skew-form criterion agrees with the af verdict
    subjects = NON_ASSOCIATIVE_PRE + [
        canonical_solution(palg)[0] for palg in NOT_DENDRIFORM[:2]]
    pairs = [(standard_dual_matched(a, b), dual_pre_matched(a, b))
             for a in subjects for b in subjects + [_zero_pre(a.dimension)]
             if a.dimension == b.dimension]
    assert 0 < _failing_against_reference(pairs) < 2 * len(pairs)
    for mp, _ in pairs:
        d = build_af_double(mp)
        assert check_af_matched(mp).passed == (
            check_identities(d, "anti-flexible").passed
            and omega_double_check(d).passed)


@pytest.mark.parametrize("build", [standard_dual_matched, dual_pre_matched])
def test_dual_pairs_check_their_factors(build):
    good = NOT_DENDRIFORM[0]
    bad = PreAlgebra(2, bump_t3(good.prec, 0, 0, 0), good.succ)
    assert not check_identities(bad, "pre-anti-flexible").passed
    for args, message in (((good, NOT_DENDRIFORM[2]), "dimension mismatch"),
                          ((bad, good), "first factor fails the "
                           "pre-anti-flexible check; witness"),
                          ((good, bad), "second factor fails the "
                           "pre-anti-flexible check; witness")):
        with pytest.raises(PreconditionError) as info:
            build(*args)
        assert str(info.value).startswith("%s: %s" % (build.__name__,
                                                      message))


def test_component_bimodule_precondition():
    rng = seeded(73)
    af, pre = _random_pairs(rng)[:2]
    with pytest.raises(PreconditionError,
                       match="check_af_matched: component bimodule A-on-B "
                             "fails; witness"):
        check_af_matched(af)
    with pytest.raises(PreconditionError,
                       match="check_pre_matched: component bimodule A-on-B "
                             "fails; witness"):
        check_pre_matched(pre)


def _perturbed_dual_pairs(rng):
    """The af and pre dual pairs of the dim-2 splittings, each as it is
    (passing or failing a condition) and with one entry of one action
    family shifted (one or the other component bimodule fails, or both pass
    and a condition may fail)."""
    out = []
    for palg in DIM2_PRE:
        for dualp in [_zero_pre(2)] + DIM2_PRE:
            for mp in (standard_dual_matched(palg, dualp),
                       dual_pre_matched(palg, dualp)):
                names = [f.name for f in fields(mp)][2:]
                name = rng.choice(names)
                maps = [[list(row) for row in m] for m in getattr(mp, name)]
                m = rng.choice(maps)
                m[rng.randrange(2)][rng.randrange(2)] += rng.choice((-1, 1))
                out += [mp, replace(mp, **{name: maps})]
    return out


def _one_sided_pairs(rng):
    """Valid factors acting on each other by zero on one side and by
    random maps on the other."""
    def maps(n, m):
        return [rand_mat(rng, m, span=1) for _ in range(n)]

    out = []
    for palgA, palgB in ((DIM2_PRE[0], DIM2_PRE[3]),
                         (DIM2_PRE[1], _zero_pre(1))):
        nA, nB = palgA.dimension, palgB.dimension
        zA, zB = [zeros_mat(nB)] * nA, [zeros_mat(nA)] * nB
        algA, algB = underlying_algebra(palgA), underlying_algebra(palgB)
        out += [AfMatchedPair(algA, algB, zA, zA, maps(nB, nA), maps(nB, nA)),
                AfMatchedPair(algA, algB, maps(nA, nB), maps(nA, nB), zB, zB),
                PreMatchedPair(palgA, palgB, zA, zA, zA, zA,
                               *[maps(nB, nA) for _ in range(4)]),
                PreMatchedPair(palgA, palgB,
                               *[maps(nA, nB) for _ in range(4)],
                               zB, zB, zB, zB)]
    return out


def test_preconditions_match_the_separate_bimodule_checks():
    # the component bimodules read as blocks of the double give the same
    # reports, and the same PreconditionError text with the same witness,
    # as checking each on its own semidirect product before the conditions
    rng = seeded(79)
    seen = set()
    pairs = _random_pairs(rng) + _perturbed_dual_pairs(rng) + \
        _one_sided_pairs(rng) + _one_sided_pairs(rng)
    for mp in pairs:
        check = check_af_matched if isinstance(mp, AfMatchedPair) \
            else check_pre_matched
        for every in (False, True):
            expected = separate_path_check(mp, every)
            if isinstance(expected, str):
                with pytest.raises(PreconditionError) as exc:
                    check(mp, every)
                assert str(exc.value) == expected
                outcome = expected.split()[3]
            else:
                assert check(mp, every) == expected
                outcome = expected.passed
            seen.add((type(mp).__name__, outcome))
    assert seen == {(kind, outcome)
                    for kind in ("AfMatchedPair", "PreMatchedPair")
                    for outcome in ("A-on-B", "B-on-A", True, False)}


def test_cyclic_form_all_failures():
    # a skew form on t3 that is not cyclic: the check lists every failing
    # basis triple, in order, with w(u, v) = u^T omega v written out
    alg = CORPUS["t3"]
    n = alg.dimension
    omega = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(2)]]

    def w(u, v):
        return sum(u[p] * omega[p][q] * v[q]
                   for p in range(n) for q in range(n))

    basis = [basis_vec(n, i) for i in range(n)]
    expected = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = basis[i], basis[j], basis[k]
                res = (w(alg.mul(x, y), z) + w(alg.mul(y, z), x)
                       + w(alg.mul(z, x), y))
                if res:
                    expected.append(("cyclic-form", (i, j, k), [res]))
    assert len(expected) > 1
    every = check_cyclic_form(alg, omega, all_failures=True)
    assert not every.passed and list(every.failures) == expected
    first = check_cyclic_form(alg, omega)
    assert first.witness == expected[0] and first.failures == (expected[0],)


def test_matched_pairs_reject_bad_action_maps():
    qt2, ut2 = CORPUS["qt2"], CORPUS["ut2"]
    z = (zeros_mat(2), zeros_mat(2))
    with pytest.raises(PreconditionError,
                       match=r"AfMatchedPair: lA\[0\] must be a list of 2"):
        check_af_matched(AfMatchedPair(qt2, qt2, [[[1]]] * 2, z, z, z))
    # qt2 (dimension 2) and ut2 (dimension 3): A's maps are 2 x (3 x 3)
    # and B's 3 x (2 x 2)
    on_b = [zeros_mat(3)] * 2
    on_a = [zeros_mat(2)] * 3
    assert check_af_matched(AfMatchedPair(qt2, ut2, on_b, on_b, on_a, on_a))
    with pytest.raises(PreconditionError,
                       match="AfMatchedPair: rB must be a list of 3"):
        AfMatchedPair(qt2, ut2, on_b, on_b, on_a, on_a[:2])
    half = [zeros_mat(2), [[0, 0], [0, 0.5]], zeros_mat(2)]
    with pytest.raises(PreconditionError,
                       match=r"AfMatchedPair: lB\[1\]\[1\]\[1\] is 0.5"):
        AfMatchedPair(qt2, ut2, on_b, on_b, half, on_a)
    palgA = PreAlgebra(2, zeros_t3(2), zeros_t3(2))
    palgB = PreAlgebra(3, zeros_t3(3), zeros_t3(3))
    maps = {f.name: on_b if f.name.endswith("A") else on_a
            for f in fields(PreMatchedPair) if f.name.startswith(("l", "r"))}
    assert check_pre_matched(PreMatchedPair(palgA, palgB, **maps))
    for name in maps:
        # each family given the other side's maps
        mine, other = (2, on_a) if name.endswith("A") else (3, on_b)
        with pytest.raises(PreconditionError,
                           match="PreMatchedPair: %s must be a list of %d "
                                 "entries" % (name, mine)):
            PreMatchedPair(palgA, palgB, **dict(maps, **{name: other}))
