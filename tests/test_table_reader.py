"""The one table reader, algebra.table_residuals, against the dense
per-tuple readers it replaced (tests/*_reference.py): every identity table
of the package streams exactly the nonzero residuals of the reference's
dense stream, in the same order, and the scans of the two streams give
equal reports with and without all_failures."""

from fractions import Fraction
from itertools import product

from antiflex.algebra import COMPOSITIONS, Algebra, PreAlgebra, \
    basis_residuals, from_associative, scan, triple_residuals
from antiflex.bialgebra import BIALGEBRA_CONDITIONS, CO_IDENTITIES, \
    Bialgebra, _condition_residuals, check_dual_pre_via_rmatrix, \
    dual_products_from_comult
from antiflex.bimodule import AF_BIMODULE, PRE_BIMODULE, block_residuals
from antiflex.matched import AF_CONDITIONS, PRE_CONDITIONS, \
    AfMatchedPair, PreMatchedPair, build_af_double, build_pre_double, \
    _dual_pair, condition_residuals
from antiflex.coboundary import special_case_bialgebra
from antiflex.linalg import ZERO
from antiflex.operators import canonical_solution

import bialgebra_reference
import bimodule_reference
import identity_reference
import matched_reference
from helpers import bump_t3, matrix_units, seeded, split_bialgebra


def _is_zero(res):
    """Whether nested lists of scalars are all zero; the shared ZERO is
    matched by identity first, at C speed."""
    if isinstance(res[0], list):
        return all(map(_is_zero, res))
    return res.count(ZERO) == len(res) or not any(res)


def _agree(name, got, dense):
    """The reader's stream is the dense stream without its zero residuals,
    and both scan to the same report; returns the number of nonzero
    residuals."""
    got, dense = list(got), list(dense)
    expected = [f for f in dense if not _is_zero(f[2])]
    assert got == expected
    for every in (False, True):
        assert scan(name, got, every) == scan(name, dense, every)
    return len(expected)


def _labels(structure):
    return ("associativity", "anti-flexible") if isinstance(
        structure, Algebra) else ("pre-anti-flexible-m",
                                  "pre-anti-flexible-lr", "dendriform-m",
                                  "dendriform-l", "dendriform-r")


def _identities_agree(structure, labels=None):
    """The given identities of the structure, by default all of its
    kind, read whole."""
    n, labels = structure.dimension, labels or _labels(structure)
    evaluate = identity_reference.basis_residuals(structure)
    got = list(triple_residuals(basis_residuals(structure), labels, n))
    assert got == list(identity_reference.triple_residuals(evaluate, labels,
                                                           n))
    return _agree("identities", got, (
        (label, idx, evaluate(label, idx))
        for idx in product(range(n), repeat=3) for label in labels))


def _matched_agree(mp):
    """The condition rows and both component bimodules' blocks of a matched
    pair, read on its double."""
    if isinstance(mp, AfMatchedPair):
        double = build_af_double(mp)
        nA, nB = mp.algA.dimension, mp.algB.dimension
        rows, reference = AF_BIMODULE, bimodule_reference.AF_BIMODULE
        labels = ("anti-flexible",)
    else:
        double = build_pre_double(mp)
        nA, nB = mp.palgA.dimension, mp.palgB.dimension
        rows, reference = PRE_BIMODULE, bimodule_reference.PRE_BIMODULE
        labels = ("pre-anti-flexible-m", "pre-anti-flexible-lr")
    tensor = basis_residuals(double)
    evaluate = identity_reference.basis_residuals(double)
    found = _agree("conditions", condition_residuals(mp, tensor),
                   matched_reference.conditions(mp, evaluate))
    A, B = range(nA), range(nA, nA + nB)
    for base, module in ((A, B), (B, A)):
        found += _agree("blocks", block_residuals(rows, tensor, base, module),
                        bimodule_reference.block_residuals(
                            reference, evaluate, base, module))
    return found + _identities_agree(double, labels)


def _bialgebra_agree(b):
    """Route 1 and the co-identities of a bialgebra, and everything read on
    the doubles of its two dual pairs."""
    n = b.dimension
    dual = dual_products_from_comult(b.delta_prec, b.delta_succ)
    every = check_dual_pre_via_rmatrix(b.delta_prec, b.delta_succ, True)
    dense = list(bialgebra_reference.co_identity_pairings(
        identity_reference.basis_residuals(dual), n))
    assert every == scan("dual-pre-via-comult", dense, True)
    assert check_dual_pre_via_rmatrix(b.delta_prec, b.delta_succ) == \
        scan("dual-pre-via-comult", dense)
    found = len(every.failures) if not every.passed else 0
    mp = _dual_pair(AfMatchedPair, b.palg, dual)
    double = build_af_double(mp)
    found += _agree("bialgebra-conditions", _condition_residuals(
        n, basis_residuals(double)), bialgebra_reference.pairing_residuals(
            n, identity_reference.basis_residuals(double)))
    return found + _matched_agree(mp) + _matched_agree(
        _dual_pair(PreMatchedPair, b.palg, dual))


def _entry(rng):
    return Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)),
                    rng.randint(2, 7))


def _tensor(rng, n, m=None, k=None, density=0.4):
    m = n if m is None else m
    k = m if k is None else k
    return [[[_entry(rng) if rng.random() < density else Fraction(0)
              for _ in range(k)] for _ in range(m)] for _ in range(n)]


def test_table_rows_name_an_identity_and_four_letters():
    tables = {"AF_CONDITIONS": (AF_CONDITIONS, 2, 3),
              "PRE_CONDITIONS": (PRE_CONDITIONS, 2, 3),
              "AF_BIMODULE": (AF_BIMODULE, 1, 2),
              "PRE_BIMODULE": (PRE_BIMODULE, 1, 2),
              "BIALGEBRA_CONDITIONS": (BIALGEBRA_CONDITIONS, 1, 2),
              "CO_IDENTITIES": (CO_IDENTITIES, 1, 2)}
    for name, (rows, identity, letters) in tables.items():
        assert rows, name
        for row in rows:
            assert row[identity] in COMPOSITIONS, (name, row)
            assert len(row[letters]) == len(set(row[letters])) == 4, \
                (name, row)


def test_reader_matches_dense_readers_on_random_rationals():
    # random structures, matched pairs and bialgebras whose constants have
    # denominators 2-7, of dimensions 1-4: most of them fail
    rng = seeded(131)
    found = 0
    for n in (1, 2, 3, 4):
        for density in (0.2, 0.6):
            found += _identities_agree(Algebra(n, _tensor(rng, n,
                                                          density=density)))
            found += _identities_agree(PreAlgebra(
                n, _tensor(rng, n, density=density),
                _tensor(rng, n, density=density)))
            if n <= 3:
                found += _bialgebra_agree(Bialgebra(
                    PreAlgebra(n, _tensor(rng, n, density=density),
                               _tensor(rng, n, density=density)),
                    _tensor(rng, n, density=density),
                    _tensor(rng, n, density=density)))
    for nA, nB in ((1, 2), (2, 1), (2, 3)):
        found += _matched_agree(AfMatchedPair(
            Algebra(nA, _tensor(rng, nA)), Algebra(nB, _tensor(rng, nB)),
            _tensor(rng, nA, nB), _tensor(rng, nA, nB),
            _tensor(rng, nB, nA), _tensor(rng, nB, nA)))
        found += _matched_agree(PreMatchedPair(
            PreAlgebra(nA, _tensor(rng, nA), _tensor(rng, nA)),
            PreAlgebra(nB, _tensor(rng, nB), _tensor(rng, nB)),
            *[_tensor(rng, nA, nB) for _ in range(4)],
            *[_tensor(rng, nB, nA) for _ in range(4)]))
    assert found > 1000


def test_reader_matches_dense_readers_on_corpus_bialgebras_and_crosses():
    found = 0
    for names in (("qt2", "t3"), ("ut2",)):
        group = [split_bialgebra(name, case, split) for name in names
                 for case in ("one", "two")
                 for split in ("succ-left", "prec-right")]
        for a in group:
            for b in group[::3]:
                found += _bialgebra_agree(Bialgebra(a.palg, b.delta_prec,
                                                    b.delta_succ))
    assert found > 100


def test_reader_matches_dense_readers_on_m3():
    # the case-one bialgebra of the 3 x 3 matrices (pre-algebra dimension
    # 18, doubles of dimension 36) with one comultiplication entry bumped:
    # a few nonzero residuals among many zero ones
    double, r = canonical_solution(from_associative(matrix_units(3),
                                                    "succ-left"))
    b = special_case_bialgebra(double, r, "one")
    bumped = Bialgebra(b.palg, bump_t3(b.delta_prec, 0, 1, 3), b.delta_succ)
    assert _bialgebra_agree(bumped) > 0
