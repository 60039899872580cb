import ast
import inspect
import pathlib
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from antiflex import linalg
from antiflex.linalg import (
    contract_product, dot, eye, mat_add, mat_inverse, mat_mul,
    mat_neg, mat_rank, mat_sub, mat_vec, t3_sub, transpose, vec_add,
    vec_is_zero, vec_sub, zeros_mat, zeros_t3, SingularMatrixError,
)

from helpers import apply2, apply_slot3, basis_vec, commutator, \
    mat_is_zero, permute3, rand_mat, rand_t3, rand_vec, seeded, solve, \
    t3_add, t3_is_zero, t3_neg, vec_neg, vec_scale

fracs = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@given(fracs, fracs)
def test_scalar_exactness_add(a, b):
    assert (a + b) - b == a


@given(fracs, fracs.filter(lambda x: x != 0))
def test_scalar_exactness_mul(a, b):
    assert (a * b) / b == a


# the dual of a linear map is its transpose matrix

def test_transpose_dual_identity_and_zero():
    assert transpose(eye(3)) == eye(3)
    assert transpose(zeros_mat(3)) == zeros_mat(3)


def test_transpose_dual_pairing():
    rng = seeded(3)
    m = rand_mat(rng, 3)
    md = transpose(m)
    for i in range(3):
        for j in range(3):
            # <M* f_j, e_i> = <f_j, M e_i>
            assert md[i][j] == m[j][i]
    assert transpose(md) == m


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
    # the flip u (x) v -> v (x) u of an element of A (x) A is its transpose
    rng = seeded(9)
    sym = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(5)]]
    assert transpose(sym) == sym
    e12 = zeros_mat(3)
    e12[0][1] = Fraction(1)
    assert transpose(e12)[1][0] == 1 and transpose(e12)[0][1] == 0
    r = rand_mat(rng, 4)
    assert transpose(transpose(r)) == r


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


# ---------------------------------------------------------------------------
# the zero-skipping kernel against its dense definitions
# ---------------------------------------------------------------------------
# The references below sum every term, zeros included, from Fraction(0).
# The inputs mix int and Fraction entries and are mostly exact zeros of
# both types; every kernel result must equal its reference and consist of
# Fractions.

ZERO = Fraction(0)


def dense_dot(u, v):
    return sum((a * b for a, b in zip(u, v)), ZERO)


def dense_mat_mul(a, b):
    return [[dense_dot(row, col) for col in zip(*b)] for row in a]


def dense_sum(*xs):
    return sum(xs, ZERO)


def dense_diff(x, y):
    return ZERO + x - y


def dense_map(f, *ts):
    """f applied entrywise to tensors of one shape (any rank)."""
    if isinstance(ts[0], (list, tuple)):
        return [dense_map(f, *parts) for parts in zip(*ts)]
    return f(*ts)


def dense_apply_slot3(t, slot, p):
    rng = range(len(t))
    if slot == 1:
        return [[[dense_sum(*(p[i][m] * t[m][j][k] for m in rng))
                  for k in rng] for j in rng] for i in rng]
    if slot == 2:
        return [[[dense_sum(*(p[j][m] * t[i][m][k] for m in rng))
                  for k in rng] for j in rng] for i in rng]
    return [[[dense_sum(*(p[k][m] * t[i][j][m] for m in rng))
              for k in rng] for j in rng] for i in rng]


def dense_contract(c, x, y):
    n1, n2, n3 = len(c), len(c[0]), len(c[0][0])
    return [dense_sum(*(x[i] * y[j] * c[i][j][k]
                        for i in range(n1) for j in range(n2)))
            for k in range(n3)]


def assert_exact(got, want):
    assert got == want
    assert dense_map(lambda x: type(x) is Fraction, got) == \
        dense_map(lambda x: True, want)


zero_entries = st.sampled_from([0, ZERO])
nonzero_entries = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))
entries = st.one_of(zero_entries, zero_entries, zero_entries,
                    nonzero_entries)
sizes = st.integers(1, 4)


def vecs(n):
    return st.lists(entries, min_size=n, max_size=n)


def mats(rows, cols):
    return st.lists(vecs(cols), min_size=rows, max_size=rows)


def t3s(n):
    return st.lists(mats(n, n), min_size=n, max_size=n)


@settings(max_examples=40)
@given(st.data(), sizes, sizes, sizes)
def test_sparse_contractions_match_dense(data, rows, inner, cols):
    a = data.draw(mats(rows, inner))
    b = data.draw(mats(inner, cols))
    u, v = data.draw(vecs(inner)), data.draw(vecs(inner))
    assert_exact(dot(u, v), dense_dot(u, v))
    assert_exact(mat_vec(a, v), [dense_dot(row, v) for row in a])
    assert_exact(mat_mul(a, b), dense_mat_mul(a, b))
    sq = data.draw(mats(inner, inner))
    p, q = data.draw(mats(inner, inner)), data.draw(mats(inner, inner))
    assert_exact(apply2(p, q, sq),
                 dense_mat_mul(dense_mat_mul(p, sq), list(zip(*q))))
    assert_exact(commutator(p, q),
                 dense_map(dense_diff, dense_mat_mul(p, q),
                           dense_mat_mul(q, p)))


@settings(max_examples=40)
@given(st.data(), sizes, sizes)
def test_sparse_combinators_match_dense(data, rows, cols):
    us = [data.draw(vecs(cols)) for _ in range(3)]
    ms = [data.draw(mats(rows, cols)) for _ in range(3)]
    assert_exact(vec_add(*us), dense_map(dense_sum, *us))
    assert_exact(vec_sub(us[0], us[1]), dense_map(dense_diff, us[0], us[1]))
    assert_exact(vec_neg(us[0]), dense_map(lambda x: ZERO - x, us[0]))
    assert_exact(mat_add(*ms), dense_map(dense_sum, *ms))
    assert_exact(mat_sub(ms[0], ms[1]), dense_map(dense_diff, ms[0], ms[1]))
    assert_exact(mat_neg(ms[0]), dense_map(lambda x: ZERO - x, ms[0]))
    assert vec_is_zero(us[0]) == all(e == 0 for e in us[0])
    assert mat_is_zero(ms[0]) == all(e == 0 for row in ms[0] for e in row)


@settings(max_examples=40)
@given(st.data(), st.integers(1, 3))
def test_sparse_tensor_kernels_match_dense(data, n):
    ts = [data.draw(t3s(n)) for _ in range(3)]
    assert_exact(t3_add(*ts), dense_map(dense_sum, *ts))
    assert_exact(t3_sub(ts[0], ts[1]), dense_map(dense_diff, ts[0], ts[1]))
    assert_exact(t3_neg(ts[0]), dense_map(lambda x: ZERO - x, ts[0]))
    assert t3_is_zero(ts[0]) == all(e == 0 for plane in ts[0]
                                    for row in plane for e in row)
    t = ts[2]
    p = data.draw(mats(n, n))
    for slot in (1, 2, 3):
        assert_exact(apply_slot3(t, slot, p), dense_apply_slot3(t, slot, p))
    x, y = data.draw(vecs(n)), data.draw(vecs(n))
    assert_exact(contract_product(t, x, y), dense_contract(t, x, y))


def test_zero_tests_skip_only_exact_zeros():
    tiny = Fraction(1, 10 ** 30)
    assert vec_is_zero([0, ZERO]) and not vec_is_zero([0, tiny])
    assert mat_is_zero([[0], [ZERO]]) and not mat_is_zero([[0], [-tiny]])
    assert t3_is_zero([[[0, ZERO]]]) and not t3_is_zero([[[tiny, 0]]])
    # a sum whose nonzero terms cancel is an exact zero, not skipped early
    assert_exact(vec_add([tiny, 0], [-tiny, 0]), [ZERO, ZERO])
    assert_exact(dot([tiny, tiny], [1, -1]), ZERO)


def _names_used(path):
    """The names a module reads, leaving out each function's reads of its
    own name (recursion)."""
    used = set()
    for node in ast.parse(path.read_text()).body:
        own = node.name if isinstance(node, ast.FunctionDef) else None
        used |= {n.id for n in ast.walk(node)
                 if isinstance(n, ast.Name) and n.id != own}
    return used


def _private_functions(path):
    """The private functions defined at the top level of a module."""
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_") and not node.name.endswith("__")}


def test_every_public_function_has_a_caller_in_the_package():
    # a helper that only the tests use lives in tests/helpers.py, not here;
    # so does every module's private helper that the package stops calling
    src = pathlib.Path(linalg.__file__).parent
    used = set().union(*(_names_used(path) for path in src.glob("*.py")))
    public = {name for name, obj in vars(linalg).items()
              if inspect.isfunction(obj) and obj.__module__ == linalg.__name__
              and not name.startswith("_")}
    assert public and public <= used, sorted(public - used)
    private = {(path.name, name) for path in src.glob("*.py")
               for name in _private_functions(path)}
    assert private and {name for _, name in private} <= used, \
        sorted(p for p in private if p[1] not in used)
