"""Acceptance gate: the twelve primary criteria, one pass/fail line each."""

import time
from fractions import Fraction
from functools import wraps

from antiflex.algebra import (
    PreAlgebra, check_cyclic_form, check_identities,
    from_associative, identity_residuals, induce_pre_from_form,
    underlying_algebra,
)
from antiflex.bimodule import AfBimodule, PreBimodule, check_af_bimodule, \
    check_pre_bimodule, derive_bimodule, regular_pre_bimodule, semidirect_pre
from antiflex.bialgebra import verify_bialgebra
from antiflex.coboundary import (
    RPair, check_coboundary_conditions, check_pafybe, coboundary_bialgebra,
    mnpq, r_is_symmetric, special_case_bialgebra, special_case_rpair,
)
from antiflex.harness import SearchSpec, grid_search, random_element_oracle
from antiflex.matched import build_af_double, check_af_matched, \
    omega_double_check, omega_matrix, standard_dual_matched
from antiflex.operators import (
    OOperator, canonical_solution, check_generalized_rb, check_two_cocycle,
    form_from_r, induced_pre_from_map, operator_form_check,
    solution_from_o_operator,
)
from antiflex.bialgebra import dual_products_from_comult
from antiflex.linalg import SingularMatrixError, eye, mat_rank, \
    zeros_mat, zeros_t3

from helpers import (
    CORPUS, DIM2_PRE, FROM_ASSOC_VARIANTS, basis_vec, flp_expression,
    multiplication_operators, permute3, perturbed_algebras,
    perturbed_pre_algebras, rand_mat, rand_sym_mat, seeded,
    sigma13_expression, sparse_mat,
)

SMALL_NAMES = ("q1", "qt2", "t3", "ut2")  # dim <= 3


def criterion(number, title):
    def deco(fn):
        @wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print("[PRIMARY %2d] %s: FAIL" % (number, title))
                raise
            print("[PRIMARY %2d] %s: PASS" % (number, title))
        return run
    return deco


def _small_algebra_subjects():
    return [(name, CORPUS[name]) for name in SMALL_NAMES]


def _small_pre_subjects():
    return [((name, v), from_associative(CORPUS[name], v))
            for name in ("qt2", "t3", "ut2")
            for v in FROM_ASSOC_VARIANTS]


def _lex_first_witness(subject, kind):
    n = subject.dimension
    basis = [basis_vec(n, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for label, res in identity_residuals(
                        subject, kind, basis[i], basis[j], basis[k]):
                    if any(v != 0 for v in res):
                        return (label, (i, j, k))
    return None


@criterion(1, "corpus soundness")
def test_criterion_01():
    for name, alg in CORPUS.items():
        start = time.monotonic()
        assert check_identities(alg, "associative").passed, name
        assert check_identities(alg, "anti-flexible").passed, name
        for variant in FROM_ASSOC_VARIANTS:
            palg = from_associative(alg, variant)
            assert check_identities(palg, "pre-anti-flexible").passed, \
                (name, variant)
        assert time.monotonic() - start < 1.0, name


@criterion(2, "perturbation sensitivity")
def test_criterion_02():
    # exact detection: every perturbation verdict matches the 100-trial
    # random-element oracle, every witness is the lexicographically first
    # failing triple, and every subject of dim >= 2 has failing
    # perturbations (dim-1 perturbations all remain valid algebras)
    seed = 0
    for name, alg in _small_algebra_subjects():
        failing = 0
        for _idx, bad in perturbed_algebras(alg):
            for kind in ("associative", "anti-flexible"):
                seed += 1
                rep = check_identities(bad, kind)
                oracle = random_element_oracle(kind, bad, trials=100,
                                               seed=seed)
                assert rep.passed == (oracle["verdict"] == "pass")
                if not rep.passed:
                    failing += 1
                    assert rep.witness[:2] == _lex_first_witness(bad, kind)
        if alg.dimension >= 2:
            assert failing > 0, name
    for key, palg in _small_pre_subjects():
        failing = 0
        for _idx, bad in perturbed_pre_algebras(palg):
            seed += 1
            rep = check_identities(bad, "pre-anti-flexible")
            oracle = random_element_oracle("pre-anti-flexible", bad,
                                           trials=100, seed=seed)
            assert rep.passed == (oracle["verdict"] == "pass")
            if not rep.passed:
                failing += 1
                assert rep.witness[:2] == \
                    _lex_first_witness(bad, "pre-anti-flexible")
        assert failing > 0, key


@criterion(3, "multilinearity bridge")
def test_criterion_03():
    # zero disagreements between basis-tuple and random-element verdicts
    # (the oracle aborts on any disagreement)
    for name, alg in _small_algebra_subjects():
        for kind in ("associative", "anti-flexible"):
            random_element_oracle(kind, alg, trials=100, seed=1)
            for _idx, bad in perturbed_algebras(alg):
                random_element_oracle(kind, bad, trials=100, seed=2)
    for key, palg in _small_pre_subjects():
        for kind in ("pre-anti-flexible", "dendriform"):
            random_element_oracle(kind, palg, trials=100, seed=3)
        for _idx, bad in perturbed_pre_algebras(palg):
            random_element_oracle("pre-anti-flexible", bad, trials=100,
                                  seed=4)


@criterion(4, "generalized Rota-Baxter equivalence")
def test_criterion_04():
    rng = seeded(40004)
    for dim, algs in ((2, (CORPUS["qt2"], CORPUS["t3"])),
                      (3, (CORPUS["ut2"],))):
        for trial in range(200):
            alg = algs[trial % len(algs)]
            alpha = rand_mat(rng, dim)
            grb = check_generalized_rb(alg, alpha).passed
            pre_ok = check_identities(induced_pre_from_map(alg, alpha),
                                      "pre-anti-flexible").passed
            assert grb == pre_ok
    found, _ = grid_search(SearchSpec("rota-baxter", bound=2), CORPUS["t3"])
    nonzero = [m for m in found if any(v != 0 for row in m for v in row)]
    assert nonzero
    for alpha in found:
        assert check_identities(induced_pre_from_map(CORPUS["t3"], alpha),
                                "pre-anti-flexible").passed


@criterion(5, "semidirect equivalence")
def test_criterion_05():
    rng = seeded(50005)
    bases = [from_associative(CORPUS[n], v)
             for n in ("qt2", "t3", "ut2") for v in ("succ-left",
                                                     "prec-right")]
    for trial in range(200):
        palg = bases[trial % len(bases)]
        n = palg.dimension
        m = 1 + trial % 2
        maps = [tuple(rand_mat(rng, m, span=1) for _ in range(n))
                for _ in range(4)]
        bm = PreBimodule(palg, m, *maps)
        bim_ok = check_pre_bimodule(bm).passed
        sd_ok = check_identities(semidirect_pre(bm),
                                 "pre-anti-flexible").passed
        assert bim_ok == sd_ok


@criterion(6, "seven bimodule transforms close")
def test_criterion_06():
    for name, alg in CORPUS.items():
        for variant in FROM_ASSOC_VARIANTS:
            bm = regular_pre_bimodule(from_associative(alg, variant))
            for tr in ("reduced", "dual-full", "dual-reduced"):
                assert check_pre_bimodule(derive_bimodule(bm, tr)).passed, \
                    (name, variant, tr)
            for tr in ("af-sum", "af-outer", "af-dual-sum", "af-dual-outer"):
                assert check_af_bimodule(derive_bimodule(bm, tr)).passed, \
                    (name, variant, tr)


@criterion(7, "canonical solution")
def test_criterion_07():
    for name in ("q1", "qt2", "t3"):
        for variant in FROM_ASSOC_VARIANTS:
            start = time.monotonic()
            palg = from_associative(CORPUS[name], variant)
            n = palg.dimension
            double, r = canonical_solution(palg)
            assert r_is_symmetric(r)
            assert mat_rank([list(row) for row in r]) == 2 * n
            assert check_pafybe(double, r).passed
            form = form_from_r(double, r)
            pairing = zeros_mat(2 * n)
            for i in range(n):
                pairing[i][n + i] = Fraction(1)
                pairing[n + i][i] = Fraction(1)
            assert form == pairing
            assert time.monotonic() - start < 5.0, (name, variant)


@criterion(8, "three-way solution-criterion agreement")
def test_criterion_08():
    instances = []
    for name in ("q1", "qt2", "t3"):
        palg = from_associative(CORPUS[name], "succ-left")
        double, r = canonical_solution(palg)
        instances.append((double, r))
    for palg in DIM2_PRE:
        found, _ = grid_search(SearchSpec("pafybe-symmetric", bound=2), palg)
        instances.extend((palg, r) for r in found)
    rng = seeded(80008)
    for trial in range(200):
        palg = DIM2_PRE[trial % len(DIM2_PRE)]
        instances.append((palg, rand_sym_mat(rng, 2)))
    for subject, r in instances:
        ybe = check_pafybe(subject, r).passed
        assert operator_form_check(subject, r).passed == ybe
        try:
            form = form_from_r(subject, r)
        except SingularMatrixError:
            continue
        assert check_two_cocycle(subject, form).passed == ybe


@criterion(9, "coboundary conditions match the bialgebra verifier")
def test_criterion_09():
    for name in ("qt2", "t3"):
        palg = from_associative(CORPUS[name], "succ-left")
        double, r = canonical_solution(palg)
        for case in ("one", "two"):
            b = special_case_bialgebra(double, r, case)
            rp = special_case_rpair(r, case)
            assert check_coboundary_conditions(double, rp).passed
            assert verify_bialgebra(b).passed
            dual = dual_products_from_comult(b.delta_prec, b.delta_succ)
            mp = standard_dual_matched(double, dual)
            assert check_af_matched(mp).passed
            assert omega_double_check(build_af_double(mp)).passed
    rng = seeded(90009)
    for trial in range(50):
        palg = DIM2_PRE[trial % len(DIM2_PRE)]
        rp = RPair(sparse_mat(rng, 2, rng.choice([1, 2])),
                   sparse_mat(rng, 2, rng.choice([1, 2])))
        cond = check_coboundary_conditions(palg, rp).passed
        truth = verify_bialgebra(coboundary_bialgebra(palg, rp)).passed
        assert cond == truth


@criterion(10, "tensor-calculus symmetry remarks")
def test_criterion_10():
    from antiflex.coboundary import _EXPRESSIONS, _rpair_mats, \
        evaluate_expression, structure_tensors
    from coboundary_reference import _CASE2_M, _CASE2_PP
    subjects = [PreAlgebra(1, zeros_t3(1), zeros_t3(1))] + DIM2_PRE
    qt2 = from_associative(CORPUS["qt2"], "succ-left")
    subjects.append(canonical_solution(qt2)[0])  # dimension 4
    rng = seeded(100010)
    for subject in subjects:
        n = subject.dimension
        c = structure_tensors(subject)
        for _ in range(100):
            rp = RPair(sparse_mat(rng, n, rng.choice([1, 2, 3])),
                       sparse_mat(rng, n, rng.choice([1, 2, 3])))
            mats = _rpair_mats(rp)

            def ev(terms):
                return evaluate_expression(c, terms, mats)

            m = _EXPRESSIONS["M"]
            flp_m = flp_expression(m)
            assert mnpq(subject, rp, "P") == ev(flp_m)
            assert mnpq(subject, rp, "N") == ev(sigma13_expression(flp_m))
            assert mnpq(subject, rp, "Q") == \
                ev(flp_expression(sigma13_expression(flp_m)))
            assert mnpq(subject, rp, "N'") == \
                ev(flp_expression(_EXPRESSIONS["M'"]))
            assert mnpq(subject, rp, "Q'") == \
                ev(flp_expression(_EXPRESSIONS["P'"]))
            rmats = {"r": rp.r_succ}
            assert evaluate_expression(c, _CASE2_PP, rmats) == \
                permute3(evaluate_expression(c, _CASE2_M, rmats),
                         "sigma123")


@criterion(11, "O-operator solutions")
def test_criterion_11():
    for name, alg in CORPUS.items():
        palg = from_associative(alg, "succ-left")
        ops = multiplication_operators(palg)
        bm = AfBimodule(underlying_algebra(palg), palg.dimension,
                        ops["L_succ"], ops["R_prec"])
        double, r = solution_from_o_operator(
            OOperator(bm, eye(palg.dimension)))
        cd, cr = canonical_solution(palg)
        assert double.prec == cd.prec and double.succ == cd.succ, name
        assert r == cr, name
    for palg in DIM2_PRE[:2]:
        ops = multiplication_operators(palg)
        bm = AfBimodule(underlying_algebra(palg), 2,
                        ops["L_succ"], ops["R_prec"])
        found, _ = grid_search(SearchSpec("o-operator", bound=2), bm)
        injective = [t for t in found
                     if mat_rank([list(row) for row in t]) == 2]
        assert injective
        for t in injective:
            double, r = solution_from_o_operator(OOperator(bm, t))
            assert r_is_symmetric(r)
            assert check_pafybe(double, r).passed


@criterion(12, "pre-structure recovery from the closed form")
def test_criterion_12():
    for name in ("q1", "qt2", "t3"):
        palg = from_associative(CORPUS[name], "succ-left")
        double, _r = canonical_solution(palg)
        d = underlying_algebra(double)
        omega = omega_matrix(palg.dimension)
        assert check_cyclic_form(d, omega).passed
        rec = induce_pre_from_form(d, omega)
        assert check_identities(rec, "pre-anti-flexible").passed
        n = d.dimension

        def w(u, v):
            return sum(u[p] * sum(omega[p][q] * v[q] for q in range(n))
                       for p in range(n))

        basis = [basis_vec(n, i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    x, y, z = basis[i], basis[j], basis[k]
                    assert w(rec.mul_prec(x, y), z) == w(x, d.mul(y, z))
                    assert w(rec.mul_succ(x, y), z) == w(y, d.mul(z, x))
