from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiflex.algebra import (
    ALGEBRA_KINDS, IDENTITIES, KIND_IDENTITIES, Algebra, PreAlgebra,
    PreconditionError, basis_residuals, check_cyclic_form, check_identities,
    CheckReport, derived_products, from_associative, induce_pre_from_form,
    pre_triple, require_pass, scan, structure_tensors, triple,
    underlying_algebra,
)
from antiflex.linalg import SingularMatrixError, \
    contract_product, eye, mat_inverse, vec_add, vec_sub, zeros_t3
from antiflex.matched import omega_matrix
from antiflex.operators import canonical_solution

from helpers import CORPUS, FROM_ASSOC_VARIANTS, basis_vec, bump_t3, \
    perturbed_algebras, perturbed_pre_algebras, rand_t3, rand_vec, seeded
from cyclic_reference import reference_check_cyclic_form
from identity_reference import reference_check_identities


def test_corpus_algebras_pass():
    for name, alg in CORPUS.items():
        assert check_identities(alg, "associative").passed, name
        assert check_identities(alg, "anti-flexible").passed, name


def test_triple_zero_on_associative():
    alg = CORPUS["m2"]
    n = alg.dimension
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert triple(alg, basis_vec(n, i), basis_vec(n, j),
                              basis_vec(n, k)) == [Fraction(0)] * n


def test_triple_matches_two_step_contraction():
    rng = seeded(21)
    c = rand_t3(rng, 2)
    alg = Algebra(2, c)
    x, y, z = (rand_vec(rng, 2) for _ in range(3))
    left = contract_product(c, contract_product(c, x, y), z)
    right = contract_product(c, x, contract_product(c, y, z))
    assert triple(alg, x, y, z) == vec_sub(left, right)


def test_pre_triple_one_sided_m_vanishes():
    # with prec = 0, both halves of the m-triple are zero
    palg = from_associative(CORPUS["qt2"], "succ-left")
    n = palg.dimension
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert pre_triple(palg, basis_vec(n, i), basis_vec(n, j),
                                  basis_vec(n, k), "m") == [Fraction(0)] * n


def test_example_pre_algebras_pass():
    for name, alg in CORPUS.items():
        for variant in FROM_ASSOC_VARIANTS:
            palg = from_associative(alg, variant)
            assert check_identities(palg, "pre-anti-flexible").passed, \
                (name, variant)


def test_perturbation_detected_with_witness():
    palg = from_associative(CORPUS["t3"], "succ-left")
    succ = bump_t3(palg.succ, 0, 1, 0)
    bad = PreAlgebra(2, palg.prec, succ)
    rep = check_identities(bad, "pre-anti-flexible")
    assert not rep.passed
    label, idx, res = rep.witness
    assert res != [Fraction(0)] * 2
    # re-verify the residual by independent expansion at the witness triple
    i, j, k = idx
    x, y, z = basis_vec(2, i), basis_vec(2, j), basis_vec(2, k)
    if label == "pre-anti-flexible-m":
        expect = vec_sub(pre_triple(bad, x, y, z, "m"),
                         pre_triple(bad, z, y, x, "m"))
    else:
        expect = vec_sub(pre_triple(bad, x, y, z, "l"),
                         pre_triple(bad, z, y, x, "r"))
    assert res == expect


def test_dendriform_implies_pre():
    palg = from_associative(CORPUS["qt2"], "succ-left")
    if check_identities(palg, "dendriform").passed:
        assert check_identities(palg, "pre-anti-flexible").passed


def test_underlying_algebra():
    alg = CORPUS["qt2"]
    palg = from_associative(alg, "succ-left")
    under = underlying_algebra(palg)
    assert under.product == alg.product
    for name, a in CORPUS.items():
        for variant in FROM_ASSOC_VARIANTS:
            u = underlying_algebra(from_associative(a, variant))
            assert check_identities(u, "anti-flexible").passed, (name, variant)


def test_derived_products():
    alg = CORPUS["qt2"]  # commutative
    palg = from_associative(alg, "succ-left")
    comm = derived_products(palg, "commutator-of-underlying")
    assert comm.product == zeros_t3(2)
    lie = derived_products(palg, "lie-admissible")
    assert lie.product == alg.product  # y prec x = 0
    # commutator is antisymmetric and satisfies Jacobi on a noncommutative base
    palg = from_associative(CORPUS["ut2"], "prec-right")
    comm = derived_products(palg, "commutator-of-underlying")
    n = comm.dimension
    basis = [basis_vec(n, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            assert comm.mul(basis[i], basis[j]) == \
                [-v for v in comm.mul(basis[j], basis[i])]
            for k in range(n):
                jac = vec_add(
                    comm.mul(comm.mul(basis[i], basis[j]), basis[k]),
                    comm.mul(comm.mul(basis[j], basis[k]), basis[i]),
                    comm.mul(comm.mul(basis[k], basis[i]), basis[j]))
                assert jac == [Fraction(0)] * n


def test_from_associative_rejects_non_associative():
    c = zeros_t3(2)
    c[0][0][0] = Fraction(1)
    c[0][1][0] = Fraction(1)
    c[1][0][1] = Fraction(1)
    bad = Algebra(2, c)
    assert not check_identities(bad, "associative").passed
    with pytest.raises(PreconditionError):
        from_associative(bad, "succ-left")


def test_induce_pre_from_form_zero_algebra():
    zero = Algebra(2, zeros_t3(2))
    palg = induce_pre_from_form(zero, eye(2))
    assert palg.prec == zeros_t3(2) and palg.succ == zeros_t3(2)


def test_induce_pre_from_form_on_double():
    # the canonical double with the skew pairing recovers a pre-structure
    # satisfying w(x < y, z) = w(x, y.z) and w(x > y, z) = w(y, z.x)
    for name in ("q1", "qt2", "t3"):
        palg = from_associative(CORPUS[name], "succ-left")
        double, _ = canonical_solution(palg)
        d = underlying_algebra(double)
        omega = omega_matrix(palg.dimension)
        assert check_cyclic_form(d, omega).passed
        rec = induce_pre_from_form(d, omega)
        assert check_identities(rec, "pre-anti-flexible").passed
        assert underlying_algebra(rec).product == d.product
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


def test_induce_pre_from_form_rejects_noncyclic():
    palg = from_associative(CORPUS["qt2"], "succ-left")
    double, _ = canonical_solution(palg)
    d = underlying_algebra(double)
    omega = omega_matrix(2)
    omega[0][1] += Fraction(1)  # break the cyclic condition
    if not check_cyclic_form(d, omega).passed:
        with pytest.raises(PreconditionError):
            induce_pre_from_form(d, omega)


def test_cyclic_form_rejects_wrong_shape():
    # a form file of the wrong size is bad input, not an index error
    alg = CORPUS["qt2"]
    for omega in ([[Fraction(1)]], [[Fraction(1), Fraction(0)]], eye(3)):
        with pytest.raises(PreconditionError, match="omega must be 2 x 2"):
            check_cyclic_form(alg, omega)
        with pytest.raises(PreconditionError, match="omega must be 2 x 2"):
            induce_pre_from_form(alg, omega)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_multilinearity_bridge_property(seed):
    # basis verdict equals random-element verdict for the identity checkers
    from antiflex.algebra import identity_residuals
    rng = seeded(seed)
    c = rand_t3(rng, 2)
    alg = Algebra(2, c)
    basis_verdict = check_identities(alg, "anti-flexible").passed
    random_verdict = True
    for _ in range(40):
        x, y, z = (rand_vec(rng, 2) for _ in range(3))
        for _label, res in identity_residuals(alg, "anti-flexible", x, y, z):
            if res != [Fraction(0)] * 2:
                random_verdict = False
    assert basis_verdict == random_verdict


# ---------------------------------------------------------------------------
# the composition evaluator against the element-level residuals
# ---------------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4),
       st.sampled_from((0.05, 0.2, 0.5, 1.0)),
       st.sampled_from(sorted(KIND_IDENTITIES)), st.booleans())
def test_check_identities_matches_reference(seed, n, density, kind, every):
    # random structures from sparse to dense: the same report, witness and
    # failures as the per-tuple scan of the element-level residuals
    rng = seeded(seed)

    def tensor():
        return [[[Fraction(rng.choice((-2, -1, 1, 3)))
                  if rng.random() < density else Fraction(0)
                  for _ in range(n)] for _ in range(n)] for _ in range(n)]

    subject = Algebra(n, tensor()) if kind in ALGEBRA_KINDS \
        else PreAlgebra(n, tensor(), tensor())
    assert check_identities(subject, kind, every) == \
        reference_check_identities(subject, kind, every)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4),
       st.sampled_from((0.05, 0.2, 0.5, 1.0)),
       st.sampled_from(sorted(KIND_IDENTITIES)), st.booleans())
def test_identity_kernel_on_non_integral_rationals(seed, n, density, kind,
                                                   every):
    # entries with denominators 2-7, so the int kernel runs at a scale
    # D > 1: the reports equal the per-tuple scan of the element-level
    # residuals, and the evaluator equals IDENTITIES on basis vectors at
    # every triple and label, where the readers of arbitrary triples call it
    rng = seeded(seed)

    def entry():
        return Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)),
                        rng.randint(2, 7))

    def tensor():
        return [[[entry() if rng.random() < density else Fraction(0)
                  for _ in range(n)] for _ in range(n)] for _ in range(n)]

    tensors = [tensor() for _ in range(1 if kind in ALGEBRA_KINDS else 2)]
    while not any(x.denominator > 1 for t in tensors for plane in t
                  for row in plane for x in row):
        t = rng.choice(tensors)
        t[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] = entry()
    subject = Algebra(n, *tensors) if kind in ALGEBRA_KINDS \
        else PreAlgebra(n, *tensors)
    assert structure_tensors(subject).scale > 1
    assert check_identities(subject, kind, every) == \
        reference_check_identities(subject, kind, every)
    tensor = basis_residuals(subject)
    labels = {label for k in (ALGEBRA_KINDS if kind in ALGEBRA_KINDS
                              else ("pre-anti-flexible", "dendriform"))
              for label in KIND_IDENTITIES[k]}
    basis = [basis_vec(n, i) for i in range(n)]
    for label in sorted(labels):
        # the listed entries, read back as a dense residual per triple
        entries = tensor(label)
        assert all(x for *_, x in entries)
        dense = {}
        for i, j, k, q, x in entries:
            dense.setdefault((i, j, k), [0] * n)[q] = x
        for i, j, k in product(range(n), repeat=3):
            assert dense.get((i, j, k), [0] * n) == IDENTITIES[label](
                subject, basis[i], basis[j], basis[k]), (label, (i, j, k))


def test_check_identities_matches_reference_on_corpus():
    # passing corpus structures, and single-entry perturbations of them
    # whose first witness lies deep in the scan
    subjects = []
    for alg in CORPUS.values():
        subjects += [alg] + [a for _, a in perturbed_algebras(alg)][::9]
        for variant in ("succ-left", "prec-right"):
            palg = from_associative(alg, variant)
            subjects += [palg] + [p for _, p in
                                  perturbed_pre_algebras(palg)][::13]
    for subject in subjects:
        kinds = ALGEBRA_KINDS if isinstance(subject, Algebra) \
            else ("pre-anti-flexible", "dendriform")
        for kind in kinds:
            for every in (False, True):
                assert check_identities(subject, kind, every) == \
                    reference_check_identities(subject, kind, every)


def _changed_basis(alg, omega, p):
    """The algebra and the bilinear form in the basis f_a = sum_i p[i][a]
    e_i: c'[a][b][c] = sum p[i][a] p[j][b] c[i][j][k] q[c][k], with q the
    inverse of p, and omega' = p^T omega p."""
    n = alg.dimension
    q = mat_inverse(p)
    c = alg.product
    prod = [[[sum(p[i][a] * p[j][b] * c[i][j][k] * q[e][k]
                  for i in range(n) for j in range(n) for k in range(n)
                  if c[i][j][k])
              for e in range(n)] for b in range(n)] for a in range(n)]
    form = [[sum(p[i][a] * omega[i][j] * p[j][b]
                 for i in range(n) for j in range(n))
             for b in range(n)] for a in range(n)]
    return Algebra(n, [[[Fraction(x) for x in row] for row in plane]
                       for plane in prod]), form


# closed skew forms: the canonical doubles of two corpus splittings with
# the canonical pairing
_CLOSED = []
for _name in ("q1", "qt2"):
    _palg = from_associative(CORPUS[_name], "succ-left")
    _CLOSED.append((underlying_algebra(canonical_solution(_palg)[0]),
                    omega_matrix(_palg.dimension)))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6),
       st.sampled_from(("closed", "perturbed", "random")), st.booleans())
def test_check_cyclic_form_matches_reference(seed, source, every):
    # random rational algebras and forms, closed and not closed: the same
    # report, witness and failures as the per-triple scan
    rng = seeded(seed)

    def frac():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 7))

    if source == "random":
        n = rng.randint(1, 4)
        alg = Algebra(n, [[[frac() if rng.random() < 0.4 else Fraction(0)
                            for _ in range(n)] for _ in range(n)]
                          for _ in range(n)])
        omega = [[frac() for _ in range(n)] for _ in range(n)]
    else:
        alg, omega = rng.choice(_CLOSED)
        n = alg.dimension
        omega = [list(row) for row in omega]
        p = [[frac() for _ in range(n)] for _ in range(n)]
        try:
            alg, omega = _changed_basis(alg, omega, p)
        except SingularMatrixError:
            pass
        if source == "perturbed":
            omega[rng.randrange(n)][rng.randrange(n)] += frac()
    report = check_cyclic_form(alg, omega, every)
    assert report == reference_check_cyclic_form(alg, omega, every)
    if source == "closed":
        assert report.passed


def test_scan_reads_no_further_than_the_first_witness():
    def stream():
        yield "zero", (0,), [Fraction(0), Fraction(0)]
        yield "first", (1,), [[Fraction(0)], [Fraction(2)]]
        yield "second", (2,), [Fraction(-1)]
        raise AssertionError("the stream was read past its end")

    first = scan("name", stream())
    assert not first.passed and first.identity_name == "name"
    assert first.witness == ("first", (1,), [[Fraction(0)], [Fraction(2)]])
    assert first.failures == (first.witness,)
    with pytest.raises(AssertionError, match="read past its end"):
        scan("name", stream(), all_failures=True)
    every = scan("name", [("a", (0,), [Fraction(1)]),
                          ("b", (1,), [Fraction(0)]),
                          ("c", (2,), [Fraction(3)])], all_failures=True)
    assert [f[0] for f in every.failures] == ["a", "c"]
    assert scan("name", [("a", (0,), [Fraction(0)])]).passed


def test_structures_reject_bad_tensors_at_the_boundary():
    # a tensor that is not dimension^3, or an entry that is not an int or a
    # Fraction, is a PreconditionError naming the field and the index
    for build, message in (
            (lambda: PreAlgebra(2, [[[1]]], [[[1]]]),
             "PreAlgebra: prec must be a list of 2 entries"),
            (lambda: PreAlgebra(1, [[[1]]], [[[1, 0]]]),
             r"PreAlgebra: succ\[0\]\[0\] must be a list of 1 entries"),
            (lambda: Algebra(2, [[[1]]]),
             "Algebra: product must be a list of 2 entries"),
            (lambda: Algebra(2, [[[1, 0], [0, 0]], [[0, 0]]]),
             r"Algebra: product\[1\] must be a list of 2 entries"),
            (lambda: Algebra(1, [[[0.1]]]),
             r"Algebra: product\[0\]\[0\]\[0\] is 0.1, not an int or "
             "Fraction"),
            (lambda: Algebra(1, [[[True]]]),
             r"Algebra: product\[0\]\[0\]\[0\] is True"),
            (lambda: PreAlgebra(1, [[[Fraction(1)]]], [[["1"]]]),
             r"PreAlgebra: succ\[0\]\[0\]\[0\] is '1'")):
        with pytest.raises(PreconditionError, match=message):
            build()
    assert Algebra(1, [[[1]]]).product == [[[1]]]
    assert PreAlgebra(1, ((((Fraction(1, 2),),),)),
                      [[[0]]]).dimension == 1


def test_require_pass():
    # a passing report returns; a failing one raises with its witness
    # appended to the message
    require_pass(CheckReport(True, "x"), "never shown")
    witness = ("anti-flexible", (0, 1, 0), [Fraction(1, 2)])
    with pytest.raises(PreconditionError) as exc:
        require_pass(CheckReport(False, "x", witness, (witness,)),
                     "caller: base fails")
    assert str(exc.value) == "caller: base fails; witness %r" % (witness,)
