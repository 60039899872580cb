"""Package-built structures: every construction made through
algebra._trusted from rows equals, field by field, in its structure
tensors and in its file bytes, the public-constructor path kept in
trusted_reference.py; the trusted path is reached only from the package;
each precondition is checked once: one verify_bialgebra call scans each
structure at most once, canonical_solution checks its base once and no
bimodule, and the constructions on checked inputs validate no output; and
the library entry points reject a structure of the wrong kind."""

import ast
import importlib
import os
import pkgutil
from fractions import Fraction

import pytest

import antiflex
import antiflex.algebra as antiflex_algebra
from antiflex.algebra import FROM_ASSOCIATIVE_VARIANTS, Algebra, \
    PreAlgebra, PreconditionError, check_identities, from_associative, \
    induce_pre_from_form, structure_tensors, underlying_algebra
from antiflex.bialgebra import Bialgebra, dual_bialgebra, \
    dual_products_from_comult, verify_bialgebra
from antiflex.bimodule import BIMODULE_TRANSFORMS, derive_bimodule, \
    regular_af_bimodule, regular_pre_bimodule, semidirect_af, \
    semidirect_pre
from antiflex.coboundary import RPair, check_pafybe, coboundary_bialgebra, \
    special_case_bialgebra
from antiflex.harness import random_element_oracle, serialize
from antiflex.linalg import transpose
from antiflex.matched import AfMatchedPair, PreMatchedPair, _dual_pair, \
    build_af_double, build_pre_double, dual_pre_matched, omega_matrix, \
    standard_dual_matched
from antiflex.operators import OOperator, assembled_double, \
    canonical_solution, check_two_cocycle, compatible_structure_on_A, \
    induced_pre_from_map, operator_form_check, solution_from_o_operator

import trusted_reference as ref
from helpers import CORPUS, NOT_DENDRIFORM, all_corpus_pre, \
    induced_not_dendriform, non_associative_af, rand_mat, seeded, \
    split_bialgebra

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PRE_SUBJECTS = all_corpus_pre() + NOT_DENDRIFORM + \
    list(induced_not_dendriform()[:5]) + [
        # non-integral: every identity is homogeneous in the constants
        PreAlgebra(p.dimension, *([[[Fraction(x, 2) for x in row]
                                    for row in plane] for plane in t]
                                  for t in (p.prec, p.succ)))
        for p in NOT_DENDRIFORM]
AF_SUBJECTS = list(CORPUS.values()) + list(non_associative_af()[:5])


def _fresh(s):
    """s made again through its public constructor, with nothing cached."""
    if isinstance(s, Algebra):
        return Algebra(s.dimension, s.product, s.basis_names)
    return PreAlgebra(s.dimension, s.prec, s.succ, s.basis_names)


def _same(new, old):
    """The trusted construction new equals the public one old in its type,
    its fields, its structure tensors (or those of its pre-algebra and its
    dual, for a bialgebra) and its file bytes."""
    assert type(new) is type(old)
    assert new == old
    if isinstance(new, Bialgebra):
        pairs = [(new.palg, old.palg), (new.dual, dual_products_from_comult(
            old.delta_prec, old.delta_succ))]
    else:
        pairs = [(new, old)]
    for a, b in pairs:
        assert structure_tensors(a) == structure_tensors(b)
    assert serialize(new) == serialize(old)


def _same_dimension_pairs(subjects):
    return [(p, q) for p in subjects for q in subjects
            if p.dimension == q.dimension][:60]


def test_underlying_algebra_matches_the_public_path():
    for palg in PRE_SUBJECTS:
        _same(underlying_algebra(_fresh(palg)), ref.underlying_algebra(palg))


def test_splittings_and_bimodules_match_the_public_path():
    for alg in CORPUS.values():
        for variant in FROM_ASSOCIATIVE_VARIANTS:
            _same(from_associative(_fresh(alg), variant),
                  ref.from_associative(alg, variant))
    for alg in AF_SUBJECTS:
        _same(regular_af_bimodule(alg), ref.regular_af_bimodule(alg))
    for palg in PRE_SUBJECTS:
        regular = regular_pre_bimodule(palg)
        _same(regular, ref.regular_pre_bimodule(palg))
        for transform in BIMODULE_TRANSFORMS:
            _same(derive_bimodule(regular, transform),
                  ref.derive_bimodule(regular, transform))


def test_semidirect_products_match_the_public_path():
    for palg in PRE_SUBJECTS:
        regular = regular_pre_bimodule(palg)
        _same(semidirect_pre(regular), ref.semidirect_pre(regular))
        derived = derive_bimodule(regular, "dual-reduced")
        _same(semidirect_pre(derived), ref.semidirect_pre(derived))
    for alg in AF_SUBJECTS + [underlying_algebra(p) for p in PRE_SUBJECTS]:
        bm = regular_af_bimodule(alg)
        _same(semidirect_af(bm), ref.semidirect_af(bm))


def test_dual_pairs_and_their_doubles_match_the_public_path():
    for p, q in _same_dimension_pairs(PRE_SUBJECTS):
        std = _dual_pair(AfMatchedPair, _fresh(p), _fresh(q))
        old_std = ref.standard_dual_matched(p, q, False)
        _same(std, old_std)
        _same(build_af_double(std), ref.build_af_double(old_std))
        pre = _dual_pair(PreMatchedPair, _fresh(p), _fresh(q))
        old_pre = ref.dual_pre_matched(p, q, False)
        _same(pre, old_pre)
        _same(build_pre_double(pre), ref.build_pre_double(old_pre))


def test_doubles_of_public_pairs_match_the_public_path():
    # pairs made by their public constructors: the double reads the rows
    # scanned off their action families
    rng = seeded(26)
    for alg in AF_SUBJECTS:
        n = alg.dimension
        maps = [[rand_mat(rng, n) for _ in range(n)] for _ in range(4)]
        mp = AfMatchedPair(alg, alg, *maps)
        _same(build_af_double(mp), ref.build_af_double(mp))
    for palg in PRE_SUBJECTS[:8]:
        n = palg.dimension
        maps = [[rand_mat(rng, n) for _ in range(n)] for _ in range(8)]
        mp = PreMatchedPair(palg, palg, *maps)
        _same(build_pre_double(mp), ref.build_pre_double(mp))


def test_bialgebras_and_dual_products_match_the_public_path():
    rng = seeded(27)
    for palg in PRE_SUBJECTS:
        double, r = canonical_solution(palg)
        for case in ("one", "two"):
            b = special_case_bialgebra(double, r, case)
            _same(b, ref.special_case_bialgebra(double, r, case))
            _same(dual_products_from_comult(b.delta_prec, b.delta_succ),
                  ref.dual_products_from_comult(b.delta_prec, b.delta_succ))
        n = palg.dimension
        rp = RPair(rand_mat(rng, n), rand_mat(rng, n))
        _same(coboundary_bialgebra(palg, rp),
              ref.coboundary_bialgebra(palg, rp))


def test_assembled_doubles_match_the_public_path():
    rng = seeded(28)
    for palg in PRE_SUBJECTS:
        n = palg.dimension
        r = rand_mat(rng, n)
        r = [[r[i][j] + r[j][i] for j in range(n)] for i in range(n)]
        _same(assembled_double(palg, r), ref.assembled_double(palg, r))


def _operator_bimodule(double):
    """The bimodule (R*_prec, L*_succ, A*) of the underlying algebra of a
    pre-algebra, against which a symmetric solution r on it is an
    O-operator."""
    return derive_bimodule(regular_pre_bimodule(double), "af-dual-outer")


def test_constructions_on_checked_inputs_match_the_public_path():
    rng = seeded(29)
    for alg in AF_SUBJECTS:
        alpha = rand_mat(rng, alg.dimension)
        _same(induced_pre_from_map(alg, alpha),
              ref.induced_pre_from_map(alg, alpha))
    for palg in PRE_SUBJECTS:
        (double, r), (old, old_r) = canonical_solution(_fresh(palg)), \
            ref.canonical_solution(palg)
        _same(double, old)
        assert r == old_r
        _same(compatible_structure_on_A(double, r),
              ref.compatible_structure_on_A(double, r))
        alg, omega = underlying_algebra(double), omega_matrix(palg.dimension)
        _same(induce_pre_from_form(alg, omega),
              ref.induce_pre_from_form(alg, omega))
        oo = OOperator(_operator_bimodule(double), transpose(r))
        (image, r2), (old_image, old_r2) = solution_from_o_operator(oo), \
            ref.solution_from_o_operator(oo)
        _same(image, old_image)
        assert r2 == old_r2
        for case in ("one", "two"):
            b = special_case_bialgebra(double, r, case)
            _same(dual_bialgebra(b), ref.dual_bialgebra(b))


def _calls(path, name):
    """The lines of path that call name, directly or as an attribute."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None))]


def test_trusted_constructor_is_called_only_from_the_package():
    def files(sub):
        top = os.path.join(ROOT, sub)
        return [os.path.join(d, f) for d, _, fs in os.walk(top)
                for f in fs if f.endswith(".py")]
    assert any(_calls(f, "_trusted") for f in files("src/antiflex"))
    for f in files("tests") + files("perfbench"):
        assert not _calls(f, "_trusted"), f


@pytest.mark.parametrize("case", ["one", "two", "cross"])
def test_verify_bialgebra_scans_each_structure_at_most_once(monkeypatch,
                                                           case):
    # a bialgebra as a file gives it: made by the public constructors, with
    # no rows cached; every structure verify_bialgebra derives from it is
    # built from rows, so only the base and the dual products are scanned
    left = split_bialgebra("qt2", "one")
    right = split_bialgebra("qt2", "two" if case == "two" else "one",
                            "prec-right" if case == "cross" else "succ-left")
    b = Bialgebra(_fresh(left.palg), right.delta_prec, right.delta_succ)
    scanned = []
    scan = antiflex_algebra._scanned

    def counted(structure):
        scanned.append(structure)
        return scan(structure)
    monkeypatch.setattr(antiflex_algebra, "_scanned", counted)
    assert verify_bialgebra(b).passed == (case != "cross")
    assert len(scanned) == 2
    assert scanned[0] is b.palg and scanned[1] is b.dual


def _counted(monkeypatch, name):
    """The calls of the package function `name` from every module of the
    package, as a list of their positional arguments that grows as they
    are made."""
    calls = []
    for info in pkgutil.iter_modules(antiflex.__path__):
        module = importlib.import_module("antiflex." + info.name)
        f = vars(module).get(name)
        if f is not None:
            def counted(*args, f=f, **kwargs):
                calls.append(args)
                return f(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("palg", PRE_SUBJECTS[::3])
def test_canonical_solution_checks_its_base_once(monkeypatch, palg):
    palg = _fresh(palg)
    identities = _counted(monkeypatch, "check_identities")
    bimodules = _counted(monkeypatch, "check_pre_bimodule")
    canonical_solution(palg)
    assert [(s.dimension, kind) for s, kind, *_ in identities] == \
        [(palg.dimension, "pre-anti-flexible")]
    assert bimodules == []


def test_constructions_on_checked_inputs_validate_no_output(monkeypatch):
    # every input is made before counting; what each construction builds
    # from them is trusted, and operator_form_check also scans nothing
    # once the rows of its pre-algebra are read
    rng = seeded(30)
    calls = []
    for palg in PRE_SUBJECTS[::3]:
        double, r = canonical_solution(palg)
        alg, n = underlying_algebra(double), palg.dimension
        b = special_case_bialgebra(double, r, "one")
        oo = OOperator(_operator_bimodule(double), transpose(r))
        structure_tensors(double)
        calls += [
            (operator_form_check, double, r),
            (induced_pre_from_map, alg, rand_mat(rng, 2 * n)),
            (compatible_structure_on_A, double, r),
            (induce_pre_from_form, alg, omega_matrix(n)),
            (solution_from_o_operator, oo), (dual_bialgebra, b)]
    checked = _counted(monkeypatch, "require_tensor")
    scanned = _counted(monkeypatch, "_scanned")
    for f, *args in calls:
        scanned.clear()
        f(*args)
        assert checked == [], f.__name__
        assert scanned == [] or f is not operator_form_check


ALG = CORPUS["qt2"]
WRONG_KIND = [
    ("check_pafybe", lambda: check_pafybe(ALG, [[0, 0], [0, 0]]),
     "PreAlgebra"),
    ("check_two_cocycle", lambda: check_two_cocycle(
        ALG, [[1, 0], [0, 1]]), "PreAlgebra"),
    ("operator_form_check", lambda: operator_form_check(
        ALG, [[0, 0], [0, 0]]), "PreAlgebra"),
    ("verify_bialgebra", lambda: verify_bialgebra(ALG), "Bialgebra"),
]


@pytest.mark.parametrize("caller,call,expected", WRONG_KIND,
                         ids=[w[0] for w in WRONG_KIND])
def test_library_entry_points_reject_the_wrong_kind(caller, call, expected):
    with pytest.raises(PreconditionError) as info:
        call()
    assert str(info.value) == "%s: expected %s, got Algebra" % (caller,
                                                                expected)


def test_identity_checks_reject_a_subject_that_is_no_algebra():
    bm = regular_af_bimodule(CORPUS["ut2"])
    for call in (lambda: check_identities(bm, "anti-flexible"),
                 lambda: random_element_oracle("anti-flexible", bm)):
        with pytest.raises(PreconditionError) as info:
            call()
        assert str(info.value) == "check_identities: expected Algebra or " \
            "PreAlgebra, got AfBimodule"


def test_underlying_algebra_brings_its_rows_to_their_own_lcd():
    # halves that sum to ints: the dot rows are read under the lcd 6 of
    # prec and succ, and the underlying algebra's under 3
    palg = PreAlgebra(2, [[[Fraction(1, 2), 0], [0, 0]], [[0, 0], [0, 0]]],
                      [[[Fraction(1, 2), 0], [0, Fraction(-1, 3)]],
                       [[0, 0], [0, 0]]])
    alg = underlying_algebra(palg)
    assert structure_tensors(alg).scale == 3
    _same(alg, ref.underlying_algebra(palg))
    assert all(type(x) is Fraction for plane in alg.product
               for row in plane for x in row)
