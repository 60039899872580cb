"""The builders and checkers that read operator families as index views of
the structure tensors, against the dense operator layer they replaced
(dense_reference): each builder returns a result == to its reference, or
raises the same PreconditionError text; each checker returns a report ==
to its reference, every failure included; and no builder changes a tensor
it was given, which a view that shares rows with its input could."""

import copy
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiflex.algebra import Algebra, PreconditionError, derived_products, \
    from_associative, underlying_algebra
from antiflex.bialgebra import check_bialgebra_hom
from antiflex.bimodule import AfBimodule, PreBimodule, derive_bimodule, \
    regular_af_bimodule, regular_pre_bimodule
from antiflex.linalg import eye, mat_add, transpose, zeros_mat
from antiflex.matched import AfMatchedPair, PreMatchedPair, _dual_pair, \
    dual_pre_matched, standard_dual_matched
from antiflex.operators import OOperator, canonical_solution, \
    check_two_cocycle, compatible_structure_on_A, form_from_r, \
    induced_pre_from_map, operator_form_check, solution_from_o_operator

import dense_reference as dense
from trusted_reference import direct_sum_tensor
from helpers import CORPUS, FROM_ASSOC_VARIANTS, NOT_DENDRIFORM, \
    all_corpus_pre, rand_mat, seeded, split_bialgebra
from test_coboundary import _matrices, fractions, pre_af_subjects, \
    random_pre_algebras

PRE_AF = all_corpus_pre() + NOT_DENDRIFORM


def _same(build, reference, *inputs):
    """build(*inputs) against reference(*inputs): equal results, or the
    same PreconditionError text; either way every input is unchanged."""
    before = copy.deepcopy(inputs)
    try:
        want = reference(*inputs)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError) as got:
            build(*inputs)
        assert str(got.value) == str(exc)
    else:
        assert build(*inputs) == want
    assert inputs == before


def _same_reports(check, reference, *inputs):
    """A checker against its reference, with and without every failure."""
    for every in (False, True):
        _same(lambda *a: check(*a, every), lambda *a: reference(*a, every),
              *inputs)


def _dual_full(bm):
    return derive_bimodule(bm, "dual-full")


def _dense_dual_full(bm):
    return PreBimodule(bm.base, bm.space_dim, *dense.dual_full_actions(
        bm.l_succ, bm.r_succ, bm.l_prec, bm.r_prec))


def _pair_builders(palg, other):
    """The two dual pairs of palg and other, by the public builders, which
    check both factors, and by the package's unchecked build."""
    for cls, build, reference in (
            (AfMatchedPair, standard_dual_matched,
             dense.standard_dual_matched),
            (PreMatchedPair, dual_pre_matched, dense.dual_pre_matched)):
        _same(build, reference, palg, other)
        _same(partial(_dual_pair, cls), partial(reference, check_inputs=False),
              palg, other)


def _pre_builders(palg, m):
    """Every builder and checker on one pre-algebra and a matrix m: the
    form of the cocycle check, the map that induces half-products, and
    m + m^T as a symmetric r."""
    _same(regular_pre_bimodule, dense.regular_pre_bimodule, palg)
    _same(regular_af_bimodule, dense.regular_af_bimodule,
          underlying_algebra(palg))
    for kind in ("lie-admissible", "commutator-of-underlying"):
        _same(derived_products, dense.derived_products, palg, kind)
    _pair_builders(palg, palg)
    _same_reports(check_two_cocycle, dense.check_two_cocycle, palg, m)
    _same_reports(operator_form_check, dense.operator_form_check, palg,
                  mat_add(m, transpose(m)))
    _same(induced_pre_from_map, dense.induced_pre_from_map,
          underlying_algebra(palg), m)


def _solution_builders(palg, r):
    """The builders and checkers of a nondegenerate symmetric solution r on
    palg, with passing and failing inputs."""
    _same(compatible_structure_on_A, dense.compatible_structure_on_A, palg,
          r)
    _same_reports(operator_form_check, dense.operator_form_check, palg, r)
    _same_reports(check_two_cocycle, dense.check_two_cocycle, palg,
                  form_from_r(palg, r))
    # a symmetric r that fails the Yang-Baxter check
    bent = [list(row) for row in r]
    bent[0][0] += 1
    _same(compatible_structure_on_A, dense.compatible_structure_on_A, palg,
          bent)


def test_builders_match_dense_layer_on_corpus_and_off_dendriform():
    rng = seeded(3)
    for palg in PRE_AF:
        _pre_builders(palg, rand_mat(rng, palg.dimension))
        bm = regular_pre_bimodule(palg)
        for derived in (bm, derive_bimodule(bm, "reduced"),
                        derive_bimodule(bm, "dual-reduced")):
            _same(_dual_full, _dense_dual_full, derived)
        _solution_builders(*canonical_solution(palg))
    for a, b in product(PRE_AF, repeat=2):
        if a is not b and a.dimension == b.dimension:
            _pair_builders(a, b)


def test_from_associative_and_maps_match_dense_layer():
    rng = seeded(5)
    for alg in CORPUS.values():
        for variant in FROM_ASSOC_VARIANTS:
            _same(from_associative, dense.from_associative, alg, variant)
        _same(regular_af_bimodule, dense.regular_af_bimodule, alg)
        n = alg.dimension
        for alpha in (eye(n), rand_mat(rng, n),
                      [[int(x) for x in row] for row in rand_mat(rng, n)]):
            _same(induced_pre_from_map, dense.induced_pre_from_map, alg,
                  alpha)


def test_bialgebra_hom_matches_dense_layer():
    rng = seeded(11)
    bialgebras = [split_bialgebra(name, case, split)
                  for name in ("q1", "qt2", "t3")
                  for case, split in (("one", "succ-left"),
                                      ("two", "prec-right"))]
    for src, dst in product(bialgebras, repeat=2):
        nA, nB = src.dimension, dst.dimension
        psis = [rand_mat(rng, nB, nA, span=1)]
        if nA == nB:
            psis.append(eye(nA))
        for psi in psis:
            _same_reports(check_bialgebra_hom, dense.check_bialgebra_hom,
                          psi, src, dst)


def _rectangular(palg, extra, nu):
    """An O-operator of the anti-flexible algebra A = palg's underlying
    algebra + extra (products across zero) on V = palg's space, dim V <
    dim A: A's first summand acts by (L_succ, R_prec) and extra by zero,
    and T is nu times the inclusion of V as the first summand."""
    n, k = palg.dimension, extra.dimension
    zero_on_v, zero_on_extra = [zeros_mat(n)] * k, [zeros_mat(k)] * n
    base = Algebra(n + k, direct_sum_tensor(
        underlying_algebra(palg).product, extra.product, zero_on_extra,
        zero_on_extra, zero_on_v, zero_on_v))
    bm = regular_pre_bimodule(palg)
    action = AfBimodule(base, n, list(bm.l_succ) + zero_on_v,
                        list(bm.r_prec) + zero_on_v)
    return OOperator(action, [[nu if i == j else 0 for j in range(n)]
                              for i in range(n + k)])


def test_solution_from_o_operator_matches_dense_layer():
    for palg in PRE_AF:
        for extra in (CORPUS["q1"], CORPUS["t3"]):
            oo = _rectangular(palg, extra, Fraction(-3, 2))
            _same(solution_from_o_operator, dense.solution_from_o_operator,
                  oo)
            # T = 0 is an O-operator, but not injective; a T that is not
            # an O-operator fails first
            n = oo.bimodule.base.dimension
            for t in (zeros_mat(n, palg.dimension),
                      mat_add(oo.T, [[1] * palg.dimension] * n)):
                _same(solution_from_o_operator,
                      dense.solution_from_o_operator,
                      OOperator(oo.bimodule, t))
        # the square case: T = id on (L_succ, R_prec, A)
        bm = regular_pre_bimodule(palg)
        _same(solution_from_o_operator, dense.solution_from_o_operator,
              OOperator(AfBimodule(underlying_algebra(palg), palg.dimension,
                                   bm.l_succ, bm.r_prec),
                        eye(palg.dimension)))


@settings(max_examples=40, deadline=None)
@given(st.data(), random_pre_algebras())
def test_builders_match_dense_layer_on_random_rationals(data, palg):
    n = palg.dimension
    _pre_builders(palg, data.draw(_matrices(n)))
    _pair_builders(palg, data.draw(random_pre_algebras().filter(
        lambda other: other.dimension == n)))


@settings(max_examples=30, deadline=None)
@given(st.data(), pre_af_subjects())
def test_solutions_match_dense_layer_on_random_rationals(data, subject):
    palg, r = subject
    _same(_dual_full, _dense_dual_full, regular_pre_bimodule(palg))
    if r is not None:
        _solution_builders(palg, r)
    oo = _rectangular(palg, data.draw(st.sampled_from(list(CORPUS.values()))),
                      data.draw(fractions.filter(bool)))
    _same(solution_from_o_operator, dense.solution_from_o_operator, oo)
