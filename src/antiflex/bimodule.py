"""Bimodules of anti-flexible and pre-anti-flexible algebras.

Action maps A -> End(V) are stored as lists of matrices, one per basis
element of A, and extended linearly when evaluated on general elements.
The checkers evaluate the defining matrix identities on all basis pairs,
which is complete by bilinearity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, PreAlgebra, CheckReport, check_identities, \
    underlying_algebra, PreconditionError, _report
from .linalg import (
    mat_add, mat_sub, mat_mul, mat_is_zero, mat_neg, transpose,
    zeros_mat, zeros_t3, commutator,
)


@dataclass(frozen=True)
class AfBimodule:
    base: Algebra
    space_dim: int
    l: tuple  # matrices, one per basis element of base
    r: tuple

    def __post_init__(self):
        object.__setattr__(self, "l", tuple(self.l))
        object.__setattr__(self, "r", tuple(self.r))


@dataclass(frozen=True)
class PreBimodule:
    base: PreAlgebra
    space_dim: int
    l_succ: tuple
    r_succ: tuple
    l_prec: tuple
    r_prec: tuple

    def __post_init__(self):
        for name in ("l_succ", "r_succ", "l_prec", "r_prec"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def l_dot(self):
        return tuple(mat_add(a, b) for a, b in zip(self.l_prec, self.l_succ))

    @property
    def r_dot(self):
        return tuple(mat_add(a, b) for a, b in zip(self.r_prec, self.r_succ))


def act(maps, coeffs):
    """Linear extension of a per-basis action: sum_i coeffs[i] * maps[i]."""
    rows = len(maps[0])
    cols = len(maps[0][0])
    out = zeros_mat(rows, cols)
    for c, m in zip(coeffs, maps):
        if not c:
            continue
        for orow, row in zip(out, m):
            for j, x in enumerate(row):
                if x:
                    orow[j] += c * x
    return out


def regular_af_bimodule(alg: Algebra) -> AfBimodule:
    """(L, R, A): left/right multiplications acting on the algebra itself."""
    n = alg.dimension
    c = alg.product
    left = [[[c[i][j][k] for j in range(n)] for k in range(n)] for i in range(n)]
    right = [[[c[i][j][k] for i in range(n)] for k in range(n)] for j in range(n)]
    return AfBimodule(alg, n, left, right)


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


def regular_pre_bimodule(palg: PreAlgebra) -> PreBimodule:
    """(L_succ, R_succ, L_prec, R_prec, A): the pre-algebra acting on itself."""
    ops = multiplication_operators(palg)
    return PreBimodule(palg, palg.dimension,
                       ops["L_succ"], ops["R_succ"], ops["L_prec"], ops["R_prec"])


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def check_af_bimodule(bm: AfBimodule, all_failures=False) -> CheckReport:
    """l(x*y) - l(x)l(y) = r(x)r(y) - r(y*x) and [l(x),r(y)] = [l(y),r(x)],
    evaluated for all basis pairs (x, y)."""
    n = bm.base.dimension
    c = bm.base.product
    failures = []
    for i in range(n):
        for j in range(n):
            lxy = act(bm.l, c[i][j])
            ryx = act(bm.r, c[j][i])
            res1 = mat_sub(mat_sub(lxy, mat_mul(bm.l[i], bm.l[j])),
                           mat_sub(mat_mul(bm.r[i], bm.r[j]), ryx))
            res2 = mat_sub(commutator(bm.l[i], bm.r[j]),
                           commutator(bm.l[j], bm.r[i]))
            for label, res in (("af-bimodule-1", res1), ("af-bimodule-2", res2)):
                if not mat_is_zero(res):
                    failures.append((label, (i, j), res))
                    if not all_failures:
                        return _report("af-bimodule", failures)
    return _report("af-bimodule", failures, all_failures)


def pre_bimodule_residuals(bm: PreBimodule, i, j):
    """The five pre-bimodule matrix identities on the basis pair (e_i, e_j).

    With ls/rs/lp/rp the succ/prec action families and x = e_i, y = e_j:
      1:  [rp(x), ls(y)] = [rp(y), ls(x)]
      2:  lp(x>y) - ls(x)lp(y) = rp(x)rs(y) - rs(y<x)
      3:  ls(x.y) - ls(x)ls(y) = rp(x)rp(y) - rp(y.x)
      4:  rs(x)l.(y) - ls(y)rs(x) = rp(y)lp(x) - lp(x)r.(y)
      5:  rs(x)r.(y) - rs(y>x) = lp(x<y) - lp(x)l.(y)
    """
    base = bm.base
    ls, rs, lp, rp = bm.l_succ, bm.r_succ, bm.l_prec, bm.r_prec
    ld, rd = bm.l_dot, bm.r_dot
    prec, succ = base.prec, base.succ
    dot_ij = [a + b for a, b in zip(prec[i][j], succ[i][j])]
    dot_ji = [a + b for a, b in zip(prec[j][i], succ[j][i])]
    res = []
    res.append(("pre-bimodule-1",
                mat_sub(commutator(rp[i], ls[j]), commutator(rp[j], ls[i]))))
    res.append(("pre-bimodule-2",
                mat_sub(mat_sub(act(lp, succ[i][j]), mat_mul(ls[i], lp[j])),
                        mat_sub(mat_mul(rp[i], rs[j]), act(rs, prec[j][i])))))
    res.append(("pre-bimodule-3",
                mat_sub(mat_sub(act(ls, dot_ij), mat_mul(ls[i], ls[j])),
                        mat_sub(mat_mul(rp[i], rp[j]), act(rp, dot_ji)))))
    res.append(("pre-bimodule-4",
                mat_sub(mat_sub(mat_mul(rs[i], ld[j]), mat_mul(ls[j], rs[i])),
                        mat_sub(mat_mul(rp[j], lp[i]), mat_mul(lp[i], rd[j])))))
    res.append(("pre-bimodule-5",
                mat_sub(mat_sub(mat_mul(rs[i], rd[j]), act(rs, succ[j][i])),
                        mat_sub(act(lp, prec[i][j]), mat_mul(lp[i], ld[j])))))
    return res


def check_pre_bimodule(bm: PreBimodule, all_failures=False) -> CheckReport:
    """The five defining identities over all basis pairs."""
    n = bm.base.dimension
    failures = []
    for i in range(n):
        for j in range(n):
            for label, res in pre_bimodule_residuals(bm, i, j):
                if not mat_is_zero(res):
                    failures.append((label, (i, j), res))
                    if not all_failures:
                        return _report("pre-bimodule", failures)
    return _report("pre-bimodule", failures, all_failures)


# ---------------------------------------------------------------------------
# derived bimodules
# ---------------------------------------------------------------------------

BIMODULE_TRANSFORMS = ("reduced", "dual-full", "dual-reduced",
                       "af-sum", "af-outer", "af-dual-sum", "af-dual-outer")


def derive_bimodule(bm: PreBimodule, transform):
    """The seven derived bimodules of a valid pre-bimodule.

    Pre-bimodule outputs (quintuple order l_succ, r_succ, l_prec, r_prec):
      reduced      -> (l_succ, 0, 0, r_prec, V)
      dual-full    -> (r_dot*, -l_prec*, -r_succ*, l_dot*, V*)
      dual-reduced -> (r_prec*, 0, 0, l_succ*, V*)

    The dual-full arrangement is the one that is actually closed under the
    five bimodule identities (verified exhaustively on small examples, and
    an involution under double dualization); a plain slot-wise dualization
    without the sum maps and signs is not a bimodule in general.
    Underlying-algebra bimodule outputs (pair order l, r):
      af-sum        -> (l_dot, r_dot, V)
      af-outer      -> (l_succ, r_prec, V)
      af-dual-sum   -> (r_dot*, l_dot*, V*)
      af-dual-outer -> (r_prec*, l_succ*, V*)
    Dual maps are matrix transposes.
    """
    rep = check_pre_bimodule(bm)
    if not rep.passed:
        raise PreconditionError("derive_bimodule: input fails the pre-bimodule "
                                "check; witness %r" % (rep.witness,))
    m = bm.space_dim
    zero = tuple(zeros_mat(m) for _ in range(bm.base.dimension))
    dual = lambda maps: tuple(transpose(x) for x in maps)
    if transform == "reduced":
        return PreBimodule(bm.base, m, bm.l_succ, zero, zero, bm.r_prec)
    neg = lambda maps: tuple(mat_neg(x) for x in maps)
    if transform == "dual-full":
        return PreBimodule(bm.base, m, dual(bm.r_dot), neg(dual(bm.l_prec)),
                           neg(dual(bm.r_succ)), dual(bm.l_dot))
    if transform == "dual-reduced":
        return PreBimodule(bm.base, m, dual(bm.r_prec), zero, zero,
                           dual(bm.l_succ))
    af_base = underlying_algebra(bm.base)
    if transform == "af-sum":
        return AfBimodule(af_base, m, bm.l_dot, bm.r_dot)
    if transform == "af-outer":
        return AfBimodule(af_base, m, bm.l_succ, bm.r_prec)
    if transform == "af-dual-sum":
        return AfBimodule(af_base, m, dual(bm.r_dot), dual(bm.l_dot))
    if transform == "af-dual-outer":
        return AfBimodule(af_base, m, dual(bm.r_prec), dual(bm.l_succ))
    raise ValueError("derive_bimodule: unknown transform %r" % (transform,))


def semidirect_pre(bm: PreBimodule) -> PreAlgebra:
    """The pre-algebra on A + V with
    (x+u) < (y+v) = x<y + l_prec(x)v + r_prec(y)u  (and the > analog).

    The input is deliberately not validated: the result passes the
    pre-anti-flexible check exactly when the base passes and the bimodule
    identities hold, and the test suite exercises both directions.
    """
    n = bm.base.dimension
    m = bm.space_dim
    d = n + m
    prec = zeros_t3(d)
    succ = zeros_t3(d)
    for out, base_c, lmaps, rmaps in (
            (prec, bm.base.prec, bm.l_prec, bm.r_prec),
            (succ, bm.base.succ, bm.l_succ, bm.r_succ)):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    out[i][j][k] = base_c[i][j][k]
        for i in range(n):          # e_i  *  v_(j-n)  =  l(e_i) column
            for j in range(m):
                for k in range(m):
                    out[i][n + j][n + k] = lmaps[i][k][j]
        for i in range(m):          # u_(i-n)  *  e_j  =  r(e_j) column
            for j in range(n):
                for k in range(m):
                    out[n + i][j][n + k] = rmaps[j][k][i]
    names = tuple(bm.base.basis_names) + tuple("v%d" % (i + 1) for i in range(m))
    return PreAlgebra(d, prec, succ, names)
