from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from antiflex.linalg import (
    apply2, apply_slot3, basis_vec, contract_product, eye, mat_inverse,
    mat_mul, mat_rank, matrix_transpose_dual, permute3, permute_tensor2,
    solve, transpose, vec_add, vec_scale, zeros_mat, zeros_t3,
    SingularMatrixError,
)

from helpers import rand_frac, rand_mat, rand_t3, rand_vec, seeded

fracs = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@given(fracs, fracs)
def test_scalar_exactness_add(a, b):
    assert (a + b) - b == a


@given(fracs, fracs.filter(lambda x: x != 0))
def test_scalar_exactness_mul(a, b):
    assert (a * b) / b == a


def test_transpose_dual_identity_and_zero():
    assert matrix_transpose_dual(eye(3)) == eye(3)
    assert matrix_transpose_dual(zeros_mat(3)) == zeros_mat(3)


def test_transpose_dual_pairing():
    rng = seeded(3)
    m = rand_mat(rng, 3)
    md = matrix_transpose_dual(m)
    for i in range(3):
        for j in range(3):
            # <M* f_j, e_i> = <f_j, M e_i>
            assert md[i][j] == m[j][i]
    assert matrix_transpose_dual(md) == m


def test_contract_product_zero_and_basis():
    rng = seeded(5)
    c = rand_t3(rng, 3)
    y = rand_vec(rng, 3)
    assert contract_product(c, [Fraction(0)] * 3, y) == [Fraction(0)] * 3
    for i in range(3):
        for j in range(3):
            assert contract_product(c, basis_vec(3, i), basis_vec(3, j)) == \
                [c[i][j][k] for k in range(3)]


def test_contract_product_t2_oracle():
    # t * t = t^2 on span{t, t^2} inside the cubic truncation
    c = zeros_t3(2)
    c[0][0][1] = Fraction(1)
    out = contract_product(c, basis_vec(2, 0), basis_vec(2, 0))
    assert out == [Fraction(0), Fraction(1)]


@settings(max_examples=30)
@given(st.integers(0, 10 ** 6), fracs)
def test_contract_product_bilinear(seed, lam):
    rng = seeded(seed)
    c = rand_t3(rng, 2)
    x, xp, y = (rand_vec(rng, 2) for _ in range(3))
    lhs = contract_product(c, vec_add(x, vec_scale(lam, xp)), y)
    rhs = vec_add(contract_product(c, x, y),
                  vec_scale(lam, contract_product(c, xp, y)))
    assert lhs == rhs


def test_permute_tensor2():
    rng = seeded(9)
    sym = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(5)]]
    assert permute_tensor2(sym) == sym
    e12 = zeros_mat(3)
    e12[0][1] = Fraction(1)
    assert permute_tensor2(e12)[1][0] == 1 and permute_tensor2(e12)[0][1] == 0
    r = rand_mat(rng, 4)
    assert permute_tensor2(permute_tensor2(r)) == r


def test_permute3():
    t = zeros_t3(3)
    t[0][1][2] = Fraction(1)  # e1 (x) e2 (x) e3
    s13 = permute3(t, "sigma13")
    assert s13[2][1][0] == 1
    rng = seeded(11)
    r = rand_t3(rng, 3)
    assert permute3(permute3(r, "sigma13"), "sigma13") == r
    # the 3-cycle has order three
    c1 = permute3(r, "sigma123")
    assert permute3(permute3(c1, "sigma123"), "sigma123") == r
    assert c1[2][0][1] == r[0][1][2]
    # totally symmetric tensor is a fixed point
    sym = zeros_t3(2)
    for i in range(2):
        sym[i][i][i] = Fraction(3)
    assert permute3(sym, "sigma13") == sym


def test_apply_helpers():
    rng = seeded(13)
    p, q = rand_mat(rng, 2), rand_mat(rng, 2)
    m = rand_mat(rng, 2)
    # (P (x) Q) m  =  P m Q^T
    assert apply2(p, q, m) == mat_mul(mat_mul(p, m), transpose(q))
    t = rand_t3(rng, 2)
    direct = [[[sum(p[a][i] * t[i][j][k] for i in range(2))
                for k in range(2)] for j in range(2)] for a in range(2)]
    assert apply_slot3(t, 1, p) == direct


def test_inverse_solve_rank():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = mat_inverse(m)
    assert mat_mul(m, inv) == eye(2)
    assert solve(m, [Fraction(1), Fraction(0)]) == \
        [Fraction(1), Fraction(-1)]
    assert mat_rank(m) == 2
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert mat_rank(singular) == 1
    # int input is eliminated exactly (a float elimination gives 1 here)
    assert mat_rank([[10 ** 17, 10 ** 17 + 1], [10 ** 17 + 1, 10 ** 17 + 2]]) \
        == 2
    try:
        mat_inverse(singular)
        assert False, "expected SingularMatrixError"
    except SingularMatrixError:
        pass
