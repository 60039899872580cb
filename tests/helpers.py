"""Shared fixtures-in-code for the test suite: corpus access, seeded random
generators, and perturbation utilities."""

import random
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, lcm

from antiflex.algebra import Algebra, PreAlgebra, check_identities, \
    from_associative
from antiflex.bialgebra import dual_products_from_comult
from antiflex.coboundary import special_case_bialgebra
from antiflex.harness import SearchSpec, corpus_names, grid_search, \
    load_corpus
from antiflex.linalg import ONE, ZERO, mat_add, mat_inverse, mat_mul, \
    mat_sub, mat_vec, transpose
from antiflex.matched import AfMatchedPair, PreMatchedPair, _dual_pair
from antiflex.operators import canonical_solution, induced_pre_from_map

CORPUS = {name: load_corpus(name) for name in corpus_names()}

FROM_ASSOC_VARIANTS = ("succ-left", "succ-right", "prec-left", "prec-right")

# the dim-2 pre-algebras that anchor most randomized checks
DIM2_PRE = [from_associative(CORPUS[a], v)
            for a in ("qt2", "t3") for v in ("succ-left", "prec-right")]


# Pre-anti-flexible pre-algebras that are not dendriform, unlike every
# splitting of an associative algebra: (x > y) < z - x > (y < z) is not
# zero, so the order of the operators in a composite matters; and in the
# third, R_prec and L_succ of e_j > e_i and e_i < e_j differ from those of
# e_i > e_j and e_j < e_i.
NOT_DENDRIFORM = [
    PreAlgebra(2, [[[0, 0], [1, 0]], [[0, 0], [-1, 0]]],
               [[[0, 0], [0, 0]], [[0, 0], [0, 1]]]),
    PreAlgebra(2, [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
               [[[0, 1], [0, 1]], [[0, 0], [0, 0]]]),
    PreAlgebra(3, [[[0, -1, 0], [0, 0, 0], [0, 0, 0]],
                   [[0, 0, 0], [0, 0, 0], [-1, 0, 0]],
                   [[0, 0, 0], [0, 0, 0], [0, 0, 0]]],
               [[[0, -1, 0], [0, 0, 0], [0, 0, 0]],
                [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                [[0, 0, 0], [1, 0, 0], [0, 0, 0]]]),
]


@lru_cache(maxsize=None)
def non_associative_af(count=40):
    """The first count anti-flexible algebras of dimension 3 that are not
    associative among seeded sparse draws (random.Random(5)): 2-6
    structure constants set to +-1 at random places."""
    rng = random.Random(5)
    out = []
    while len(out) < count:
        c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        for _ in range(rng.randint(2, 6)):
            c[rng.randrange(3)][rng.randrange(3)][rng.randrange(3)] = \
                rng.choice((-1, 1))
        alg = Algebra(3, c)
        if check_identities(alg, "anti-flexible").passed and \
                not check_identities(alg, "associative").passed:
            out.append(alg)
    return tuple(out)


@lru_cache(maxsize=None)
def induced_not_dendriform(count=12):
    """The first count pre-algebras that are not dendriform among those
    induced (induced_pre_from_map) by the Rota-Baxter maps over {-1, 0, 1}
    of non_associative_af(), in grid order: pre-anti-flexible, since a
    Rota-Baxter map on an anti-flexible algebra induces one."""
    out = []
    for alg in non_associative_af():
        found, _ = grid_search(SearchSpec("rota-baxter", (-1, 0, 1)), alg)
        out += [p for p in map(partial(induced_pre_from_map, alg), found)
                if not check_identities(p, "dendriform").passed]
        if len(out) >= count:
            return tuple(out[:count])
    raise AssertionError("fewer than %d induced pre-algebras are not "
                         "dendriform" % count)


def all_corpus_pre():
    return [from_associative(alg, v)
            for alg in CORPUS.values() for v in FROM_ASSOC_VARIANTS]


def rand_frac(rng, span=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def rand_vec(rng, n, span=4):
    return [rand_frac(rng, span) for _ in range(n)]


def rand_mat(rng, n, m=None, span=2):
    m = n if m is None else m
    return [[Fraction(rng.randint(-span, span)) for _ in range(m)]
            for _ in range(n)]


def sparse_mat(rng, n, nnz):
    out = [[Fraction(0)] * n for _ in range(n)]
    for _ in range(nnz):
        out[rng.randrange(n)][rng.randrange(n)] = \
            Fraction(rng.choice([-1, 1]))
    return out


def rand_sym_mat(rng, n, span=2):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = Fraction(rng.randint(-span, span))
    return m


def rand_t3(rng, n, span=1):
    return [[[Fraction(rng.randint(-span, span)) for _ in range(n)]
             for _ in range(n)] for _ in range(n)]


def over(tensors, q):
    """The rank-3 tensors times the one rational that makes their entries
    integers over q with no common factor, so that the lcd of their
    entries is exactly q; some entry must be nonzero."""
    entries = [x for t in tensors for plane in t for row in plane
               for x in row if x]
    d = lcm(*(x.denominator for x in entries))
    mu = Fraction(d, gcd(*(int(x * d) for x in entries)) * q)
    return [[[[x * mu for x in row] for row in plane] for plane in t]
            for t in tensors]


def bump_t3(t, i, j, k, amount=1):
    """Copy of a rank-3 tensor with one entry shifted."""
    out = [[list(row) for row in m] for m in t]
    out[i][j][k] += amount
    return out


def perturbed_algebras(alg: Algebra):
    """Every single-entry +1 perturbation of an algebra's product tensor."""
    n = alg.dimension
    for i in range(n):
        for j in range(n):
            for k in range(n):
                yield (i, j, k), Algebra(n, bump_t3(alg.product, i, j, k),
                                         alg.basis_names)


def perturbed_pre_algebras(palg: PreAlgebra):
    """Every single-entry +1 perturbation of either product tensor."""
    n = palg.dimension
    for which in ("prec", "succ"):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    prec, succ = palg.prec, palg.succ
                    if which == "prec":
                        prec = bump_t3(prec, i, j, k)
                    else:
                        succ = bump_t3(succ, i, j, k)
                    yield (which, i, j, k), PreAlgebra(n, prec, succ,
                                                       palg.basis_names)


def matrix_units(n):
    """The algebra of n x n matrices over the matrix units: E_ab E_cd is
    E_ad when b = c and 0 otherwise, E_ab the basis vector a * n + b."""
    d = n * n
    c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for a in range(n):
        for b in range(n):
            for e in range(n):
                c[a * n + b][b * n + e][a * n + e] = Fraction(1)
    return Algebra(d, c, tuple("E%d%d" % (a + 1, b + 1) for a in range(n)
                               for b in range(n)))


def seeded(seed):
    return random.Random(seed)


def split_bialgebra(name, case, split="succ-left"):
    """The case-one or case-two bialgebra of the canonical solution on a
    splitting of a corpus algebra."""
    double, r = canonical_solution(from_associative(CORPUS[name], split))
    return special_case_bialgebra(double, r, case)


def cross_pairs(a, b):
    """The route 2 and route 4 pairs of the products of the bialgebra a
    with the comultiplications of the bialgebra b."""
    dual = dual_products_from_comult(b.delta_prec, b.delta_succ)
    return (_dual_pair(AfMatchedPair, a.palg, dual),
            _dual_pair(PreMatchedPair, a.palg, dual))


def bialgebra_pairs():
    """The route 2 and route 4 pairs of the case-one and case-two
    bialgebras of qt2, t3 and ut2 and of their same-dimension crosses (the
    products of one with the comultiplications of another), and two failing
    crosses: qt2 split succ-left with qt2 split prec-right."""
    groups = [[split_bialgebra(name, case) for name in names
               for case in ("one", "two")]
              for names in (("qt2", "t3"), ("ut2",))]
    out = [cross_pairs(a, b) for group in groups for a in group
           for b in group]
    left, right = split_bialgebra("qt2", "one"), \
        split_bialgebra("qt2", "one", "prec-right")
    return out + [cross_pairs(left, right), cross_pairs(right, left)]


def not_dendriform_bialgebras():
    """The case-one and case-two bialgebras of the canonical solutions of
    the NOT_DENDRIFORM pre-algebras, on their doubles (dimensions 4, 4
    and 6)."""
    out = []
    for palg in NOT_DENDRIFORM:
        double, r = canonical_solution(palg)
        out += [special_case_bialgebra(double, r, case)
                for case in ("one", "two")]
    return out


# ---------------------------------------------------------------------------
# linear algebra that only the tests use
# ---------------------------------------------------------------------------

def multiplication_operators(palg: PreAlgebra):
    """Regular operator families (L_prec, R_prec, L_succ, R_succ) of a
    pre-algebra, each a tuple of matrices indexed by basis element."""
    n = palg.dimension
    out = {}
    for name, c in (("prec", palg.prec), ("succ", palg.succ)):
        out["L_" + name] = tuple(
            [[c[i][j][k] for j in range(n)] for k in range(n)] for i in range(n))
        out["R_" + name] = tuple(
            [[c[i][j][k] for i in range(n)] for k in range(n)] for j in range(n))
    out["L_dot"] = tuple(mat_add(a, b)
                         for a, b in zip(out["L_prec"], out["L_succ"]))
    out["R_dot"] = tuple(mat_add(a, b)
                         for a, b in zip(out["R_prec"], out["R_succ"]))
    return out


def t3_add(*ts):
    return [mat_add(*planes) for planes in zip(*ts)]


def basis_vec(n, i):
    v = [ZERO] * n
    v[i] = ONE
    return v


def vec_neg(v):
    return [ZERO - a if a else ZERO for a in v]


def vec_scale(c, v):
    return [c * a for a in v]


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def t3_neg(a):
    return [[[ZERO - x if x else ZERO for x in row] for row in plane]
            for plane in a]


def t3_is_zero(t):
    return not any(any(row) for plane in t for row in plane)


def permute3(t, perm):
    """Index permutation of an element of A(x)A(x)A.

    sigma13 swaps the outer slots, x(x)y(x)z -> z(x)y(x)x (an involution);
    sigma123 is the 3-cycle x(x)y(x)z -> z(x)x(x)y (order three).
    """
    n = len(t)
    rng = range(n)
    if perm == "sigma13":
        return [[[t[k][j][i] for k in rng] for j in rng] for i in rng]
    if perm == "sigma123":
        return [[[t[j][k][i] for k in rng] for j in rng] for i in rng]
    raise ValueError("permute3: unknown permutation %r" % (perm,))


def mat_is_zero(m):
    return not any(map(any, m))


def apply2(p, q, m):
    """Apply the operator p (x) q to an element m of A (x) A."""
    return mat_mul(mat_mul(p, m), transpose(q))


def apply_slot3(t, slot, p):
    """Apply operator p at one tensor slot (1, 2 or 3) of a rank-3 element.

    Each slot is one matrix product: p times t flattened to (slot 1, slots
    2-3) for slot 1, p times each plane t[i] for slot 2, and each plane
    times p^T for slot 3."""
    if slot == 1:
        n2, n3 = len(t[0]), len(t[0][0])
        flat = mat_mul(p, [[x for row in plane for x in row]
                           for plane in t])
        return [[r[j * n3:(j + 1) * n3] for j in range(n2)] for r in flat]
    if slot == 2:
        return [mat_mul(p, plane) for plane in t]
    if slot == 3:
        return [mat_mul(plane, transpose(p)) for plane in t]
    raise ValueError("apply_slot3: slot must be 1, 2 or 3")


def solve(m, b):
    """Solve m x = b exactly (m square invertible)."""
    return mat_vec(mat_inverse(m), b)


# ---------------------------------------------------------------------------
# symmetries of the term lists of antiflex.coboundary
# ---------------------------------------------------------------------------
# A factor is (tag, p, q) with tag naming an r-element; a term is
# (sign, factor, op, factor).  The decoration flip exchanges the two factors
# and swaps prec <-> succ on the product (dot is fixed); the outer slot swap
# relabels slot s as 4 - s in every placement.

_FLP_OP = {"prec": "succ", "succ": "prec", "dot": "dot"}


def flp_expression(terms):
    return tuple((sign, f2, _FLP_OP[op], f1) for sign, f1, op, f2 in terms)


def sigma13_expression(terms):
    rel = lambda f: (f[0], 4 - f[1], 4 - f[2])
    return tuple((sign, rel(f1), op, rel(f2)) for sign, f1, op, f2 in terms)
