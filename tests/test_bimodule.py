from fractions import Fraction

import pytest

from antiflex.algebra import Algebra, PreAlgebra, PreconditionError, \
    basis_residuals, check_identities, scan
from antiflex.bimodule import (
    AF_BIMODULE, PRE_BIMODULE, AfBimodule, PreBimodule, block_residuals,
    check_af_bimodule, check_pre_bimodule, derive_bimodule,
    regular_af_bimodule, regular_pre_bimodule, semidirect_af, semidirect_pre,
)
from antiflex.linalg import mat_add, zeros_mat

from bimodule_reference import reference_residuals
from helpers import CORPUS, DIM2_PRE, NOT_DENDRIFORM, all_corpus_pre, \
    bialgebra_pairs, cross_pairs, induced_not_dendriform, mat_is_zero, \
    non_associative_af, not_dendriform_bialgebras, rand_mat, rand_t3, seeded

PRE_TRANSFORMS = ("reduced", "dual-full", "dual-reduced")
AF_TRANSFORMS = ("af-sum", "af-outer", "af-dual-sum", "af-dual-outer")

# pre-anti-flexible subjects whose underlying algebras are not associative
NON_ASSOCIATIVE_PRE = NOT_DENDRIFORM + list(induced_not_dendriform()[:5])


def _zero_pre_bimodule(palg, m):
    zero = tuple(zeros_mat(m) for _ in range(palg.dimension))
    return PreBimodule(palg, m, zero, zero, zero, zero)


def test_regular_af_bimodules_pass():
    for alg in list(CORPUS.values()) + list(non_associative_af()[:5]):
        assert check_af_bimodule(regular_af_bimodule(alg)).passed, alg


def test_zero_af_bimodule_passes():
    alg = CORPUS["m2"]
    zero = tuple(zeros_mat(2) for _ in range(4))
    assert check_af_bimodule(AfBimodule(alg, 2, zero, zero)).passed


def test_af_bimodule_perturbation_fails():
    bm = regular_af_bimodule(CORPUS["ut2"])
    l = [[[v for v in row] for row in m] for m in bm.l]
    l[0][0][1] += Fraction(1)
    rep = check_af_bimodule(AfBimodule(bm.base, bm.space_dim, l, bm.r))
    assert not rep.passed and rep.witness is not None


def test_bimodule_maps_checked_at_construction():
    qt2, palg = CORPUS["qt2"], DIM2_PRE[0]
    zero = [zeros_mat(2)] * 2
    half = [zeros_mat(2), [[Fraction(0)] * 2, [Fraction(0), 0.5]]]
    for maps, message in (([zeros_mat(2)], r"l must be a list of 2"),
                          ([[[1]]] * 2, r"l\[0\] must be a list of 2"),
                          ([zeros_mat(2), [[1, 0], [1]]],
                           r"l\[1\]\[1\] must be a list of 2"),
                          (half, r"l\[1\]\[1\]\[1\] is 0\.5"),
                          ([[[True, 0], [0, 0]]] * 2, r"l\[0\]\[0\]\[0\]")):
        with pytest.raises(PreconditionError, match="AfBimodule: " + message):
            AfBimodule(qt2, 2, maps, zero)
        with pytest.raises(PreconditionError,
                           match="PreBimodule: r_prec" + message[1:]):
            PreBimodule(palg, 2, zero, zero, zero, maps)
    # a map of the wrong extent for space_dim
    with pytest.raises(PreconditionError, match=r"r\[0\] must be a list of 3"):
        AfBimodule(qt2, 3, [zeros_mat(3)] * 2, zero)


def test_regular_pre_bimodules_pass():
    for palg in all_corpus_pre() + NON_ASSOCIATIVE_PRE:
        assert check_pre_bimodule(regular_pre_bimodule(palg)).passed


def test_zero_pre_bimodule_passes():
    assert check_pre_bimodule(_zero_pre_bimodule(DIM2_PRE[0], 2)).passed


def test_swapped_maps_fail():
    # swapping the succ and prec left actions of a one-sided regular
    # bimodule moves the nonzero maps to the wrong identities
    palg = DIM2_PRE[0]  # succ-left variant: l_succ nonzero, l_prec zero
    bm = regular_pre_bimodule(palg)
    swapped = PreBimodule(palg, bm.space_dim, bm.l_prec, bm.r_succ,
                          bm.l_succ, bm.r_prec)
    assert not check_pre_bimodule(swapped).passed


def test_seven_transforms_closure():
    for palg in all_corpus_pre() + NON_ASSOCIATIVE_PRE:
        bm = regular_pre_bimodule(palg)
        for tr in PRE_TRANSFORMS:
            assert check_pre_bimodule(derive_bimodule(bm, tr)).passed, tr
        for tr in AF_TRANSFORMS:
            assert check_af_bimodule(derive_bimodule(bm, tr)).passed, tr


def test_dual_full_involution():
    for palg in DIM2_PRE:
        bm = regular_pre_bimodule(palg)
        dd = derive_bimodule(derive_bimodule(bm, "dual-full"), "dual-full")
        for k in ("l_succ", "r_succ", "l_prec", "r_prec"):
            assert getattr(dd, k) == tuple(getattr(bm, k)), k


def test_af_sum_is_componentwise_sum():
    bm = regular_pre_bimodule(DIM2_PRE[1])
    s = derive_bimodule(bm, "af-sum")
    assert s.l == tuple(mat_add(a, b) for a, b in zip(bm.l_prec, bm.l_succ))
    assert s.r == tuple(mat_add(a, b) for a, b in zip(bm.r_prec, bm.r_succ))


def test_derive_rejects_invalid():
    palg = DIM2_PRE[0]
    bm = regular_pre_bimodule(palg)
    bad_maps = [[[Fraction(1), Fraction(1)], [Fraction(1), Fraction(0)]]] * 2
    bad = PreBimodule(palg, 2, bad_maps, bm.r_succ, bm.l_prec, bm.r_prec)
    if not check_pre_bimodule(bad).passed:
        with pytest.raises(PreconditionError):
            derive_bimodule(bad, "reduced")


def test_derive_checks_the_transform_name_first():
    # an unknown name is refused before the pre-bimodule check runs, here
    # on a bimodule that would fail it, naming the valid transforms
    palg = DIM2_PRE[0]
    bm = regular_pre_bimodule(palg)
    bad_maps = [[[Fraction(1), Fraction(1)], [Fraction(1), Fraction(0)]]] * 2
    bad = PreBimodule(palg, 2, bad_maps, bm.r_succ, bm.l_prec, bm.r_prec)
    assert not check_pre_bimodule(bad).passed
    for subject in (bm, bad):
        with pytest.raises(PreconditionError, match=(
                r"derive_bimodule: unknown transform 'dual_full'; the "
                r"transforms are reduced, dual-full, dual-reduced, af-sum, "
                r"af-outer, af-dual-sum, af-dual-outer$")):
            derive_bimodule(subject, "dual_full")
    for transform in PRE_TRANSFORMS + AF_TRANSFORMS:
        derive_bimodule(bm, transform)


def test_semidirect_zero_bimodule():
    palg = DIM2_PRE[0]
    sd = semidirect_pre(_zero_pre_bimodule(palg, 2))
    assert sd.dimension == 4
    assert check_identities(sd, "pre-anti-flexible").passed


def test_semidirect_dual_reduced_passes():
    for palg in all_corpus_pre() + NON_ASSOCIATIVE_PRE:
        bm = derive_bimodule(regular_pre_bimodule(palg), "dual-reduced")
        sd = semidirect_pre(bm)
        assert sd.dimension == 2 * palg.dimension
        assert check_identities(sd, "pre-anti-flexible").passed


def test_semidirect_equivalence_random():
    # semidirect passes the pre check <=> the candidate maps satisfy the
    # bimodule identities (base valid throughout)
    rng = seeded(77)
    agree = 0
    for trial in range(60):
        palg = DIM2_PRE[trial % len(DIM2_PRE)]
        n = palg.dimension
        maps = [tuple(rand_mat(rng, 2, span=1) for _ in range(n))
                for _ in range(4)]
        bm = PreBimodule(palg, 2, *maps)
        bim_ok = check_pre_bimodule(bm).passed
        sd_ok = check_identities(semidirect_pre(bm),
                                 "pre-anti-flexible").passed
        assert bim_ok == sd_ok
        agree += 1
    assert agree == 60


# ---------------------------------------------------------------------------
# the rows against the identities written out as matrix expressions
# ---------------------------------------------------------------------------

def _rows_match_reference(bm):
    """The rows of a bimodule give the nonzero reference residuals tuple by
    tuple, and its checker the report of a scan over them; returns whether
    the bimodule fails."""
    if isinstance(bm, AfBimodule):
        rows, semidirect, check, name = AF_BIMODULE, semidirect_af(bm), \
            check_af_bimodule, "af-bimodule"
    else:
        rows, semidirect, check, name = PRE_BIMODULE, semidirect_pre(bm), \
            check_pre_bimodule, "pre-bimodule"
    reference = reference_residuals(bm)
    n = bm.base.dimension
    failing = [f for f in reference if not mat_is_zero(f[2])]
    assert list(block_residuals(rows, basis_residuals(semidirect), range(n),
                                range(n, semidirect.dimension))) == failing
    assert check(bm, all_failures=True) == scan(name, failing, True)
    assert check(bm) == scan(name, failing)
    return bool(failing)


def test_rows_match_reference_on_random_bimodules():
    # random bases and actions: most of these bimodules fail
    rng = seeded(91)
    failing = total = 0
    for _ in range(3):
        for n, m in ((1, 1), (2, 2), (2, 3), (3, 2)):
            def maps():
                return [rand_mat(rng, m, span=1) for _ in range(n)]
            for bm in (AfBimodule(Algebra(n, rand_t3(rng, n)), m, maps(),
                                  maps()),
                       PreBimodule(PreAlgebra(n, rand_t3(rng, n),
                                              rand_t3(rng, n)), m,
                                   maps(), maps(), maps(), maps())):
                failing += _rows_match_reference(bm)
                total += 1
    assert 2 * failing > total


def test_rows_match_reference_on_component_bimodules():
    # the component bimodules of the route 2 and route 4 matched pairs, and
    # of those of the bialgebras on the NOT_DENDRIFORM doubles
    seen = set()
    for mp, pmp in bialgebra_pairs() + [
            cross_pairs(b, b) for b in not_dendriform_bialgebras()]:
        for bm in (AfBimodule(mp.algA, mp.algB.dimension, mp.lA, mp.rA),
                   AfBimodule(mp.algB, mp.algA.dimension, mp.lB, mp.rB),
                   PreBimodule(pmp.palgA, pmp.palgB.dimension, pmp.ls_A,
                               pmp.rs_A, pmp.lp_A, pmp.rp_A),
                   PreBimodule(pmp.palgB, pmp.palgA.dimension, pmp.ls_B,
                               pmp.rs_B, pmp.lp_B, pmp.rp_B)):
            if repr(bm) not in seen:
                seen.add(repr(bm))
                assert not _rows_match_reference(bm)
    assert len(seen) > 10


def test_rows_match_reference_on_non_associative_bimodules():
    # the regular bimodules of non-associative bases and every bimodule
    # derived from those of the pre-algebras, the canonical dual-reduced
    # one included: all pass
    subjects = [regular_af_bimodule(alg) for alg in non_associative_af()[:5]]
    for palg in NON_ASSOCIATIVE_PRE:
        regular = regular_pre_bimodule(palg)
        subjects += [regular] + [derive_bimodule(regular, tr) for tr in
                                 PRE_TRANSFORMS + AF_TRANSFORMS]
    for bm in subjects:
        assert not _rows_match_reference(bm)
