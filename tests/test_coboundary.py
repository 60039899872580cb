from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import antiflex.algebra as antiflex_algebra
from antiflex.algebra import PreconditionError, flat_residuals
from antiflex.bialgebra import verify_bialgebra
from antiflex.coboundary import (
    SPECIAL_CASES, _EXPRESSIONS, _rpair_mats, RPair,
    check_coboundary_conditions, check_pafybe, coboundary_bialgebra,
    coboundary_delta, evaluate_expression, mnpq, r_is_symmetric,
    special_case_bialgebra, special_case_conditions, special_case_rpair,
    structure_tensors,
)
from antiflex.harness import SearchSpec, grid_search, search_results
from antiflex.operators import canonical_solution, check_rota_baxter
from antiflex.linalg import eye, mat_add, transpose, zeros_mat, zeros_t3
from antiflex.algebra import PreAlgebra, from_associative

from helpers import CORPUS, DIM2_PRE, NOT_DENDRIFORM, apply2, \
    flp_expression, induced_not_dendriform, matrix_units, multiplication_operators, over, permute3, \
    rand_mat, rand_sym_mat, seeded, sigma13_expression, sparse_mat
import coboundary_reference


def _rand_rpair(rng, n, dense=False):
    if dense:
        return RPair(rand_mat(rng, n, span=1), rand_mat(rng, n, span=1))
    return RPair(sparse_mat(rng, n, rng.choice([1, 2, 3])),
                 sparse_mat(rng, n, rng.choice([1, 2, 3])))


def test_zero_rpair_trivial():
    palg = DIM2_PRE[0]
    rp = RPair(zeros_mat(2), zeros_mat(2))
    dp, ds = coboundary_delta(palg, rp)
    assert all(m == zeros_mat(2) for m in dp + ds)
    assert check_coboundary_conditions(palg, rp).passed
    assert verify_bialgebra(coboundary_bialgebra(palg, rp)).passed


def _naive_pairwise(palg, a, b, slots, op):
    """Independent expansion: decompose both tensor-square elements over the
    basis, multiply the components meeting at the shared slot (first factor
    on the left), and place the rest."""
    n = palg.dimension
    c = {"prec": palg.prec, "succ": palg.succ,
         "dot": [[[palg.prec[i][j][k] + palg.succ[i][j][k]
                   for k in range(n)] for j in range(n)]
                 for i in range(n)]}[op]
    digits = [int(ch) for ch in slots if ch.isdigit()]
    (s1, s2), (s3, s4) = (digits[0], digits[1]), (digits[2], digits[3])
    shared = ({s1, s2} & {s3, s4}).pop()
    out = zeros_t3(n)
    for i, j, k, l in product(range(n), repeat=4):
        coeff = a[i][j] * b[k][l]
        if coeff == 0:
            continue
        acomp = {s1: i, s2: j}
        bcomp = {s3: k, s4: l}
        vec = c[acomp[shared]][bcomp[shared]]
        afree = s2 if shared == s1 else s1
        bfree = s4 if shared == s3 else s3
        for m in range(n):
            if vec[m] == 0:
                continue
            idx = {shared: m, afree: acomp[afree], bfree: bcomp[bfree]}
            out[idx[1]][idx[2]][idx[3]] += coeff * vec[m]
    return out


def pairwise_tensor_product(palg, a, b, slots, op):
    """A single placed product, as the one-term expression a op b; slots is
    a string like '23.12' giving the two placements."""
    p1, q1, p2, q2 = (int(ch) for ch in slots if ch.isdigit())
    return evaluate_expression(structure_tensors(palg),
                               ((1, ("a", p1, q1), op, ("b", p2, q2)),),
                               {"a": a, "b": b})


def test_pairwise_tensor_product_oracle():
    rng = seeded(87)
    patterns = ("12.13", "12.23", "23.12", "21.13", "13.23", "31.23",
                "32.21", "21.31", "23.31", "13.21", "12.31", "32.12")
    cases = [(palg, rand_mat(rng, 2), rand_mat(rng, 2))
             for palg in DIM2_PRE[:2]]
    # the dim-3 and dim-4 corpus splittings, with dense and sparse factors
    for name in ("ut2", "m2"):
        palg = from_associative(CORPUS[name], "succ-left")
        n = palg.dimension
        cases.append((palg, rand_mat(rng, n), rand_mat(rng, n)))
        cases.append((palg, sparse_mat(rng, n, 2), sparse_mat(rng, n, 3)))
        cases.append((palg, sparse_mat(rng, n, 1), rand_mat(rng, n)))
    # non-integral structure constants and factors
    half = Fraction(1, 2)
    third = PreAlgebra(1, [[[half]]], [[[Fraction(1, 3)]]])
    cases.append((third, [[Fraction(1)]], [[Fraction(1)]]))
    cases.append((third, [[Fraction(-2, 5)]], [[Fraction(3, 7)]]))
    ut2 = from_associative(CORPUS["ut2"], "succ-left")
    cases.append((_over(ut2.prec, ut2.succ, 2), rand_sym_mat(rng, 3),
                  [[Fraction(i - j, 3 + i) for j in range(3)]
                   for i in range(3)]))
    for palg, a, b in cases:
        for slots in patterns:
            for op in ("prec", "succ", "dot"):
                assert pairwise_tensor_product(palg, a, b, slots, op) == \
                    _naive_pairwise(palg, a, b, slots, op), (slots, op)
    # the 1-dimensional prec = 1/2, succ = 1/3: each product is divided
    # back by the common denominator 6 of the structure constants
    one = [[Fraction(1)]]
    assert [pairwise_tensor_product(third, one, one, "12.13", op)
            for op in ("prec", "succ", "dot")] == \
        [[[[half]]], [[[Fraction(1, 3)]]], [[[Fraction(5, 6)]]]]


def test_symmetry_remarks():
    # P = flp(M), N = s13(flp(M)), Q = flp(s13(flp(M))),
    # N' = flp(M'), Q' = flp(P')
    rng = seeded(93)
    for trial in range(30):
        palg = DIM2_PRE[trial % len(DIM2_PRE)]
        rp = _rand_rpair(rng, 2, dense=(trial % 3 == 0))
        m = mnpq(palg, rp, "M")
        assert mnpq(palg, rp, "P") == _flp_tensor(palg, rp, "M")
        assert mnpq(palg, rp, "N") == permute3(_flp_tensor(palg, rp, "M"),
                                               "sigma13")
        assert mnpq(palg, rp, "Q") == _flp_tensor_of(
            permute3(_flp_tensor(palg, rp, "M"), "sigma13"), palg, rp, "M")
        assert mnpq(palg, rp, "N'") == _flp_tensor(palg, rp, "M'")
        assert mnpq(palg, rp, "Q'") == _flp_tensor(palg, rp, "P'")
        assert m is not None


def _flp_tensor(palg, rp, which):
    from antiflex.coboundary import _EXPRESSIONS, _rpair_mats, \
        evaluate_expression, structure_tensors
    return evaluate_expression(structure_tensors(palg),
                               flp_expression(_EXPRESSIONS[which]),
                               _rpair_mats(rp))


def _flp_tensor_of(expected_n, palg, rp, which):
    from antiflex.coboundary import _EXPRESSIONS, _rpair_mats, \
        evaluate_expression, structure_tensors
    return evaluate_expression(
        structure_tensors(palg), flp_expression(sigma13_expression(
            flp_expression(_EXPRESSIONS[which]))), _rpair_mats(rp))


def test_flp_is_involution():
    from antiflex.coboundary import _EXPRESSIONS
    for which in ("M", "M'", "P'"):
        terms = _EXPRESSIONS[which]
        assert flp_expression(flp_expression(terms)) == list(terms) or \
            flp_expression(flp_expression(terms)) == terms


def test_sigma_closed_forms():
    # sigma D_succ(x) = (L_dot(x) (x) id) s r_succ + (id (x) R_prec(x)) r_prec
    # sigma D_prec(x) = (L_succ(x) (x) id) s r_prec + (id (x) R_dot(x)) r_succ
    rng = seeded(97)
    ident = eye(2)
    for trial in range(20):
        palg = DIM2_PRE[trial % len(DIM2_PRE)]
        ops = multiplication_operators(palg)
        rp = _rand_rpair(rng, 2, dense=True)
        dp, ds = coboundary_delta(palg, rp)
        for i in range(2):
            closed_s = mat_add(
                apply2(ops["L_dot"][i], ident, transpose(rp.r_succ)),
                apply2(ident, ops["R_prec"][i], rp.r_prec))
            assert transpose(ds[i]) == closed_s
            closed_p = mat_add(
                apply2(ops["L_succ"][i], ident, transpose(rp.r_prec)),
                apply2(ident, ops["R_dot"][i], rp.r_succ))
            assert transpose(dp[i]) == closed_p


def test_conditions_agree_with_bialgebra_verifier():
    rng = seeded(101)
    seen = {True: 0, False: 0}
    for trial in range(60):
        palg = DIM2_PRE[trial % len(DIM2_PRE)]
        rp = _rand_rpair(rng, 2)
        cond = check_coboundary_conditions(palg, rp).passed
        truth = verify_bialgebra(coboundary_bialgebra(palg, rp)).passed
        assert cond == truth
        seen[cond] += 1
    assert seen[True] and seen[False]


def test_pafybe_basics():
    palg = DIM2_PRE[0]
    assert check_pafybe(palg, zeros_mat(2)).passed
    assert r_is_symmetric(zeros_mat(2))
    rng = seeded(103)
    failing = 0
    for _ in range(20):
        r = rand_mat(rng, 2)
        rep = check_pafybe(palg, r)
        if not rep.passed:
            failing += 1
            assert rep.witness is not None
    assert failing > 0


def test_canonical_solution_chain():
    for name in ("q1", "qt2", "t3"):
        palg = from_associative(CORPUS[name], "succ-left")
        double, r = canonical_solution(palg)
        assert r_is_symmetric(r)
        assert check_pafybe(double, r).passed


def test_special_cases_on_canonical():
    palg = from_associative(CORPUS["t3"], "succ-left")
    double, r = canonical_solution(palg)
    for case in ("one", "two"):
        rp = special_case_rpair(r, case)
        assert isinstance(rp, RPair)
        b = special_case_bialgebra(double, r, case)
        assert verify_bialgebra(b).passed
        assert special_case_conditions(double, r, case).passed


def test_case_two_p2_equals_sigma123_m2():
    from antiflex.coboundary import evaluate_expression, structure_tensors
    from coboundary_reference import _CASE2_M, _CASE2_PP
    rng = seeded(107)
    for trial in range(20):
        palg = DIM2_PRE[trial % len(DIM2_PRE)]
        r = rand_mat(rng, 2)
        mats = {"r": r}
        c = structure_tensors(palg)
        m2 = evaluate_expression(c, _CASE2_M, mats)
        p2 = evaluate_expression(c, _CASE2_PP, mats)
        assert p2 == permute3(m2, "sigma123")


def test_symmetric_solutions_verify_both_cases():
    # every grid-found symmetric solution gives a bialgebra in both
    # special cases
    for palg in DIM2_PRE[:2]:
        found, _report = grid_search(SearchSpec("pafybe-symmetric",
                                                bound=2), palg)
        assert found  # r = 0 at least
        for r in found:
            for case in ("one", "two"):
                assert verify_bialgebra(
                    special_case_bialgebra(palg, r, case)).passed


def test_special_case_conditions_agree_with_verifier():
    rng = seeded(109)
    seen = {True: 0, False: 0}
    for trial in range(40):
        palg = DIM2_PRE[trial % len(DIM2_PRE)]
        r = sparse_mat(rng, 2, rng.choice([1, 2]))
        case = ("one", "two")[trial % 2]
        cond = special_case_conditions(palg, r, case).passed
        truth = verify_bialgebra(special_case_bialgebra(palg, r, case)).passed
        assert cond == truth
        seen[cond] += 1
    assert seen[True] and seen[False]


def _special_case_subjects():
    """Every corpus splitting (succ-left and prec-right) with random r, and
    the canonical doubles of q1, qt2 and t3 with their canonical solution
    (which passes both cases) and random r."""
    rng = seeded(113)
    subjects = [from_associative(alg, variant) for alg in CORPUS.values()
                for variant in ("succ-left", "prec-right")]
    out = []
    for name in ("q1", "qt2", "t3"):
        double, r = canonical_solution(
            from_associative(CORPUS[name], "succ-left"))
        out.append((double, r))
        subjects.append(double)
    for palg in subjects:
        n = palg.dimension
        trials = 2 if n < 4 else 1
        out += [(palg, rand_mat(rng, n, span=1)) for _ in range(trials)]
        out += [(palg, rand_sym_mat(rng, n, span=1)) for _ in range(trials)]
    return out


def test_special_case_conditions_match_reference():
    # the special cases are the coboundary conditions at the specialised
    # r-pair, relabelled: the same reports as the hand-written cases
    failed = set()
    passed = 0
    for palg, r in _special_case_subjects():
        for case in ("one", "two"):
            for every in (False, True):
                report = special_case_conditions(palg, r, case, every)
                assert report == coboundary_reference.special_case_conditions(
                    palg, r, case, every), (case, every)
                failed.update(label for label, _idx, _res in report.failures)
                passed += report.passed
    assert failed == {"case-one-" + x for x in "ABCD"} | \
        {"case-two-" + x for x in "ABCDEF"}
    assert passed


def test_special_case_conditions_reject_wrong_shaped_r():
    palg = from_associative(CORPUS["qt2"], "succ-left")
    for r in ([[1, 0, 0], [0, 0, 0]], [[1, 0], [0, 0], [0, 0]], [[1]]):
        for case in ("one", "two"):
            with pytest.raises(PreconditionError,
                               match="special_case_conditions: r must be "
                                     "2 x 2"):
                special_case_conditions(palg, r, case)


def test_r_checks_reject_inexact_entries():
    palg = from_associative(CORPUS["qt2"], "succ-left")
    for bad in (0.5, True):
        r = [[Fraction(0), Fraction(1)], [bad, Fraction(0)]]
        entry = r"\[1\]\[0\] is %r, not an int or Fraction" % (bad,)
        with pytest.raises(PreconditionError, match="check_pafybe: r" + entry):
            check_pafybe(palg, r)
        for case in ("one", "two"):
            with pytest.raises(PreconditionError,
                               match="special_case_conditions: r" + entry):
                special_case_conditions(palg, r, case)
        with pytest.raises(PreconditionError, match="RPair: r_succ" + entry):
            check_coboundary_conditions(palg, RPair(zeros_mat(2), r))
        with pytest.raises(PreconditionError,
                           match="check_rota_baxter: alpha" + entry):
            check_rota_baxter(CORPUS["qt2"], r)


# ---------------------------------------------------------------------------
# the int path against the Fraction path, on non-integral inputs
# ---------------------------------------------------------------------------

def _over(prec, succ, q):
    """The pre-algebra of prec and succ scaled to the lcd q (see over)."""
    return PreAlgebra(len(prec), *over((prec, succ), q))


def _pre_af_subjects():
    """The corpus splittings (dimensions 1-4), the canonical doubles of
    q1, qt2 and t3 (dimensions 2 and 4), and the NOT_DENDRIFORM pre-algebras
    and their canonical doubles (dimensions 2 to 6), with their canonical r
    or None."""
    out = [(palg, None) for palg in NOT_DENDRIFORM]
    out += [(from_associative(alg, variant), None) for alg in CORPUS.values()
            for variant in ("succ-left", "prec-right")]
    out += [canonical_solution(palg) for palg in NOT_DENDRIFORM]
    out += [canonical_solution(from_associative(CORPUS[name], "succ-left"))
            for name in ("q1", "qt2", "t3")]
    return out


_PRE_AF = _pre_af_subjects()
denominators = st.integers(2, 7)
fractions = st.builds(Fraction, st.integers(-7, 7), denominators)
entries = st.one_of(st.just(Fraction(0)), fractions)


def _matrices(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n,
                    max_size=n)


@st.composite
def random_pre_algebras(draw):
    """A pre-algebra of dimension 1-4 with random structure constants
    (not pre-anti-flexible in general) whose lcd is 2-7."""
    n = draw(st.integers(1, 4))
    cube = st.lists(st.lists(st.lists(entries, min_size=n, max_size=n),
                             min_size=n, max_size=n), min_size=n, max_size=n)
    prec, succ = draw(cube), draw(cube)
    prec[0][0][0] = draw(fractions.filter(bool))
    return _over(prec, succ, draw(denominators))


@st.composite
def pre_af_subjects(draw):
    """A pre-anti-flexible pre-algebra of dimension 1-4 with non-integral
    structure constants (a corpus splitting or canonical double times a
    rational), with its canonical r times a rational, or None."""
    palg, r = draw(st.sampled_from(_PRE_AF))
    palg = _over(palg.prec, palg.succ, draw(denominators))
    if r is not None:
        nu = draw(fractions.filter(bool))
        r = [[x * nu for x in row] for row in r]
    return palg, r


def _check_scale(palg):
    assert structure_tensors(palg).scale > 1


@settings(max_examples=60, deadline=None)
@given(st.data(), random_pre_algebras())
def test_expressions_match_fraction_path(data, palg):
    _check_scale(palg)
    n = palg.dimension
    rp = RPair(data.draw(_matrices(n)), data.draw(_matrices(n)))
    mats = _rpair_mats(rp)
    c, ref = structure_tensors(palg), \
        coboundary_reference.structure_tensors(palg)
    for key, terms in _EXPRESSIONS.items():
        assert evaluate_expression(c, terms, mats) == \
            coboundary_reference.evaluate_expression(ref, terms, mats), key


@settings(max_examples=60, deadline=None)
@given(st.data(), random_pre_algebras())
def test_check_pafybe_matches_fraction_path(data, palg):
    _check_scale(palg)
    n = palg.dimension
    r = data.draw(st.one_of(_matrices(n), st.just(zeros_mat(n))))
    for every in (False, True):
        assert check_pafybe(palg, r, every) == \
            coboundary_reference.check_pafybe(palg, r, every)


@settings(max_examples=40, deadline=None)
@given(st.data(), pre_af_subjects())
def test_coboundary_checks_match_fraction_path(data, subject):
    palg, r = subject
    _check_scale(palg)
    n = palg.dimension
    if r is None or data.draw(st.booleans()):
        r = data.draw(_matrices(n))
    for case in SPECIAL_CASES:
        for every in (False, True):
            rp = special_case_rpair(r, case)
            assert check_coboundary_conditions(palg, rp, every) == \
                coboundary_reference.check_coboundary_conditions(
                    palg, rp, every)
            assert special_case_conditions(palg, r, case, every) == \
                coboundary_reference.special_case_conditions(
                    palg, r, case, every)
    rp = RPair(data.draw(_matrices(n)), data.draw(_matrices(n)))
    assert check_coboundary_conditions(palg, rp, True) == \
        coboundary_reference.check_coboundary_conditions(palg, rp, True)


def test_coboundary_checks_match_reference_off_dendriform():
    # every term of the quadratic families shows on these subjects: the
    # canonical doubles of ut2 and m2 (not commutative) and the
    # NOT_DENDRIFORM pre-algebras and their doubles, at random r-pairs
    rng = seeded(127)
    doubles = [from_associative(CORPUS[name], "succ-left")
               for name in ("ut2", "m2")] + NOT_DENDRIFORM
    subjects = NOT_DENDRIFORM + [canonical_solution(palg)[0]
                                 for palg in doubles]
    for palg in subjects:
        n = palg.dimension
        rp = RPair(rand_mat(rng, n, span=1), rand_mat(rng, n, span=1))
        for every in (False, True):
            assert check_coboundary_conditions(palg, rp, every) == \
                coboundary_reference.check_coboundary_conditions(
                    palg, rp, every)


@settings(max_examples=60, deadline=None)
@given(st.data(), random_pre_algebras())
def test_coboundary_delta_matches_fraction_path(data, palg):
    _check_scale(palg)
    n = palg.dimension
    rp = RPair(data.draw(_matrices(n)), data.draw(_matrices(n)))
    got = coboundary_delta(palg, rp)
    assert got == coboundary_reference.coboundary_delta(palg, rp)
    assert all(type(x) is Fraction for delta in got for m in delta
               for row in m for x in row)


def test_special_case_conditions_on_m3():
    # the canonical solution on the splitting of the 3 x 3 matrices passes
    # both cases; r + e1 (x) e1 fails each at a cubic condition, with the
    # reference's witness and failures
    double, r = canonical_solution(from_associative(matrix_units(3),
                                                    "succ-left"))
    bumped = [list(row) for row in r]
    bumped[0][0] += 1
    for case in SPECIAL_CASES:
        assert special_case_conditions(double, r, case).passed
        for every in (False, True):
            report = special_case_conditions(double, bumped, case, every)
            assert not report.passed
            assert report == coboundary_reference.special_case_conditions(
                double, bumped, case, every), (case, every)


def test_coboundary_checks_build_the_structure_tensors_once(monkeypatch):
    # the base's pre-anti-flexible check and the kernel read one build,
    # kept on the base; each call gets a base without one
    built, r = canonical_solution(from_associative(CORPUS["ut2"],
                                                   "succ-left"))
    builds = []
    scanned = antiflex_algebra._scanned

    def counted(structure):
        builds.append(structure)
        return scanned(structure)
    monkeypatch.setattr(antiflex_algebra, "_scanned", counted)
    for call in (lambda double: check_coboundary_conditions(
                     double, special_case_rpair(r, "two")),
                 lambda double: special_case_conditions(double, r, "one"),
                 lambda double: special_case_bialgebra(double, r, "two")):
        double = PreAlgebra(built.dimension, built.prec, built.succ,
                            built.basis_names)
        builds.clear()
        call(double)
        assert builds == [double]
        assert builds[0] is double


@settings(max_examples=20, deadline=None)
@given(st.data(), pre_af_subjects())
def test_pafybe_grid_search_matches_fraction_path(data, subject):
    palg = subject[0]
    assume(palg.dimension <= 3)
    _check_scale(palg)
    coeffs = data.draw(st.one_of(
        st.just((Fraction(-1, 2), Fraction(0), Fraction(1, 3))),
        st.lists(fractions, min_size=1, max_size=3, unique=True).map(tuple)))
    found, report = grid_search(SearchSpec("pafybe-symmetric", coeffs, 3),
                                palg)
    expected = coboundary_reference.pafybe_grid_search(palg, coeffs)
    assert found == expected
    assert report == {"format_version": 1, "target": "pafybe-symmetric",
                      "candidates": len(coeffs) ** (
                          palg.dimension * (palg.dimension + 1) // 2),
                      "found": len(expected),
                      "coefficient_set": [str(c) for c in coeffs]}
    assert search_results("pafybe-symmetric", found) == \
        search_results("pafybe-symmetric", expected)


# ---------------------------------------------------------------------------
# the block reader against the per-family reader it replaced
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 2))
def test_flat_residuals_match_the_per_family_reader(data, n, k):
    # random flat int families over k basis indices and 4 - k residual
    # indices, some of them zero, read in the same order
    flat = st.lists(st.integers(-2, 2), min_size=n ** 4, max_size=n ** 4)
    tensors = {label: data.draw(st.one_of(flat, st.just([0] * n ** 4)))
               for label in ("a", "b", "c")}
    d = data.draw(st.integers(1, 7))
    families = {label: lambda t=t: t for label, t in tensors.items()}
    assert list(flat_residuals(families, (n,) * k, (n,) * (4 - k), d)) \
        == list(coboundary_reference._blocks(families, n, k, d))


def test_check_pafybe_matches_the_int_core_it_replaced():
    # the corpus splittings, NOT_DENDRIFORM and the induced pre-algebras
    # that are not dendriform, at rational and at solving r
    rng = seeded(251)
    subjects = [(from_associative(alg, "succ-left"), None)
                for alg in CORPUS.values()] + [
        (palg, None) for palg in NOT_DENDRIFORM + list(
            induced_not_dendriform())] + [
        canonical_solution(palg) for palg in NOT_DENDRIFORM]
    for palg, r in subjects:
        n = palg.dimension
        c = structure_tensors(palg)
        for r in ([r] if r else []) + [rand_sym_mat(rng, n),
                                       [[Fraction(rng.randint(-3, 3),
                                                  rng.randint(2, 7))
                                         for _ in range(n)]
                                        for _ in range(n)]]:
            for every in (False, True):
                assert check_pafybe(palg, r, every) == \
                    coboundary_reference.pafybe_int_core(c, r, every)


@settings(max_examples=40, deadline=None)
@given(st.data(), random_pre_algebras())
def test_check_pafybe_matches_the_int_core_on_rationals(data, palg):
    n = palg.dimension
    r = data.draw(st.one_of(_matrices(n), st.just(zeros_mat(n))))
    c = structure_tensors(palg)
    for every in (False, True):
        assert check_pafybe(palg, r, every) == \
            coboundary_reference.pafybe_int_core(c, r, every)
