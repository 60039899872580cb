"""Bimodules of anti-flexible and of pre-anti-flexible algebras.

Action maps A -> End(V) are stored as tuples of matrices, one per basis
element of A.  With L(e_i)v = e_i*v and R(e_j)u = u*e_j, the dual L*(e_i)
is the plane c[i] of the structure tensor and R*(e_j) is transpose(c)[j].
A family that derive_bimodule passes through shares its rows with its
input and must not be mutated.

A bimodule is an identity of its semidirect product A + V read on the
V-block: A + V has the identity of A exactly when the base has it and the
bimodule identities hold.  On a triple with one argument in V that block
is linear in it, a matrix, and each bimodule identity is one such block, a
row of AF_BIMODULE or PRE_BIMODULE, read off the semidirect product's
identity tensor (algebra.table_residuals) over all basis pairs of A.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .algebra import Algebra, PreAlgebra, CheckReport, PreconditionError, \
    _dense, _require_actions, _require_kind, _tensors, _trusted, \
    basis_residuals, require_pass, scan, structure_tensors, table_residuals, \
    underlying_algebra
from .linalg import mat_add, mat_neg, transpose, zeros_mat


@dataclass(frozen=True)
class AfBimodule:
    base: Algebra
    space_dim: int
    l: tuple  # matrices, one per basis element of base
    r: tuple

    def __post_init__(self):
        _require_actions("AfBimodule", self, ("l", "r"),
                         self.base.dimension, self.space_dim)


@dataclass(frozen=True)
class PreBimodule:
    base: PreAlgebra
    space_dim: int
    l_succ: tuple
    r_succ: tuple
    l_prec: tuple
    r_prec: tuple

    def __post_init__(self):
        _require_actions("PreBimodule", self,
                         ("l_succ", "r_succ", "l_prec", "r_prec"),
                         self.base.dimension, self.space_dim)

    @property
    def l_dot(self):
        return tuple(mat_add(a, b) for a, b in zip(self.l_prec, self.l_succ))

    @property
    def r_dot(self):
        return tuple(mat_add(a, b) for a, b in zip(self.r_prec, self.r_succ))


def dual_maps(maps):
    """The dual of each map of a family, acting on dual coordinates: its
    matrix transpose."""
    return tuple(transpose(m) for m in maps)


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


def _regular_maps(c):
    """The left and right multiplications (L, R) of the product tensor c,
    one matrix per basis element: the transposes of L* = c and
    R* = transpose(c)."""
    return dual_maps(c), dual_maps(transpose(c))


def regular_af_bimodule(alg: Algebra) -> AfBimodule:
    """(L, R, A): left/right multiplications acting on the algebra itself."""
    return _trusted(AfBimodule, alg, alg.dimension,
                    *_regular_maps(alg.product))


def regular_pre_bimodule(palg: PreAlgebra) -> PreBimodule:
    """(L_succ, R_succ, L_prec, R_prec, A): the pre-algebra acting on itself."""
    return _trusted(PreBimodule, palg, palg.dimension,
                    *_regular_maps(palg.succ), *_regular_maps(palg.prec))


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

# One row per bimodule identity: (label, identity of the semidirect
# product, its arguments and coordinate, sign; see
# algebra.table_residuals).  x, y are basis vectors of A, a of V and k a
# coordinate of V; the row is read at (x, y) = (e_i, e_j) for the index
# pair (i, j), and entry [k][t] of its residual matrix is coordinate k of
# the identity at a = v_t.
#   af-bimodule-1:  l(x*y) - l(x)l(y) = r(x)r(y) - r(y*x)
#   af-bimodule-2:  [l(x),r(y)] = [l(y),r(x)]
# With ls/rs/lp/rp the succ/prec actions and l., r. their sums:
#   pre-bimodule-1:  [rp(x), ls(y)] = [rp(y), ls(x)]
#   pre-bimodule-2:  lp(x>y) - ls(x)lp(y) = rp(x)rs(y) - rs(y<x)
#   pre-bimodule-3:  ls(x.y) - ls(x)ls(y) = rp(x)rp(y) - rp(y.x)
#   pre-bimodule-4:  rs(x)l.(y) - ls(y)rs(x) = rp(y)lp(x) - lp(x)r.(y)
#   pre-bimodule-5:  rs(x)r.(y) - rs(y>x) = lp(x<y) - lp(x)l.(y)
AF_BIMODULE = (
    ("af-bimodule-1", "anti-flexible", "xyak", 1),
    ("af-bimodule-2", "anti-flexible", "yaxk", 1),
)

PRE_BIMODULE = (
    ("pre-bimodule-1", "pre-anti-flexible-m", "yaxk", 1),
    ("pre-bimodule-2", "pre-anti-flexible-m", "xyak", 1),
    ("pre-bimodule-3", "pre-anti-flexible-lr", "xyak", 1),
    ("pre-bimodule-4", "pre-anti-flexible-lr", "yaxk", 1),
    ("pre-bimodule-5", "pre-anti-flexible-lr", "ayxk", 1),
)


def block_residuals(rows, tensor, base, modules):
    """(label, (i, j), residual matrix) of each row at every basis pair of
    the base where it is nonzero, in checking order, given the
    basis_residuals of a semidirect product or double whose index ranges
    base and modules hold the base and the module.  Column t of the
    residual is the module block of the row's identity at a = the t-th
    module vector."""
    at = {"x": base, "y": base, "a": modules, "k": modules}
    return table_residuals(tensor, rows, at, at, "xy", "ka")


def check_af_bimodule(bm: AfBimodule, all_failures=False) -> CheckReport:
    """The two rows of AF_BIMODULE over all basis pairs."""
    _require_kind("check_af_bimodule", bm, AfBimodule)
    d, n = semidirect_af(bm), bm.base.dimension
    return scan("af-bimodule", block_residuals(
        AF_BIMODULE, basis_residuals(d), range(n), range(n, d.dimension)),
        all_failures)


def check_pre_bimodule(bm: PreBimodule, all_failures=False) -> CheckReport:
    """The five rows of PRE_BIMODULE over all basis pairs."""
    _require_kind("check_pre_bimodule", bm, PreBimodule)
    d, n = semidirect_pre(bm), bm.base.dimension
    return scan("pre-bimodule", block_residuals(
        PRE_BIMODULE, basis_residuals(d), range(n), range(n, d.dimension)),
        all_failures)


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
    if transform not in BIMODULE_TRANSFORMS:
        raise PreconditionError("derive_bimodule: unknown transform %r; "
                                "the transforms are %s"
                                % (transform, ", ".join(BIMODULE_TRANSFORMS)))
    require_pass(check_pre_bimodule(bm),
                 "derive_bimodule: input fails the pre-bimodule check")
    base, m = bm.base, bm.space_dim
    zero = tuple(zeros_mat(m) for _ in range(base.dimension))
    if transform == "reduced":
        return _trusted(PreBimodule, base, m, bm.l_succ, zero, zero, bm.r_prec)
    if transform == "dual-full":
        neg_l_prec, neg_r_succ = (tuple(mat_neg(d) for d in dual_maps(maps))
                                  for maps in (bm.l_prec, bm.r_succ))
        return _trusted(PreBimodule, base, m, dual_maps(bm.r_dot), neg_l_prec,
                        neg_r_succ, dual_maps(bm.l_dot))
    if transform == "dual-reduced":
        return _trusted(PreBimodule, base, m, dual_maps(bm.r_prec), zero,
                        zero, dual_maps(bm.l_succ))
    af_base = underlying_algebra(base)
    if transform == "af-sum":
        return _trusted(AfBimodule, af_base, m, bm.l_dot, bm.r_dot)
    if transform == "af-outer":
        return _trusted(AfBimodule, af_base, m, bm.l_succ, bm.r_prec)
    if transform == "af-dual-sum":
        return _trusted(AfBimodule, af_base, m, dual_maps(bm.r_dot),
                        dual_maps(bm.l_dot))
    return _trusted(AfBimodule, af_base, m, dual_maps(bm.r_prec),
                    dual_maps(bm.l_succ))


def _sum_rows(nA, nB, cA, cB, lA, rA, lB, rB):
    """The rows on A + B, A-basis first, of the product
    (x+a)(y+b) = (x*y + lB(a)y + rB(b)x) + (a*b + lA(x)b + rA(y)a),
    from the rows of its six parts (see structure_tensors) under one
    denominator; None is a zero part."""
    def part(rows, n1, n2):
        return [[[]] * n2] * n1 if rows is None else rows
    cB, lB, rB = part(cB, nB, nB), part(lB, nB, nA), part(rB, nA, nB)

    def up(row):
        return [(k + nA, x) for k, x in row]
    return ([pa + [r + up(l) for r, l in zip(pr, pl)]
             for pa, pr, pl in zip(cA, rB, lA)]
            + [[l + up(r) for l, r in zip(pl, pr)] + [up(row) for row in pb]
               for pl, pr, pb in zip(lB, rA, cB)])


def _double(cls, names, nA, d, blocks):
    """The cls on A + B with product op the _sum_rows of blocks[op] under d,
    read off them into dense products when first read."""
    n = len(names)
    rows = {op: _sum_rows(nA, n - nA, *parts) for op, parts in blocks.items()}
    dense = [partial(_dense, rows[op], d, n) for op in blocks]
    return _trusted(cls, n, *dense, names, tensors=_tensors(rows, d))


def _semidirect(cls, bm, ops):
    """The semidirect product cls on A + V of bm: its product op is
    op + l(x)v + r(y)u for each (op, l, r) of ops."""
    c = structure_tensors(bm)
    names = tuple(bm.base.basis_names) + tuple(
        "v%d" % (i + 1) for i in range(bm.space_dim))
    return _double(cls, names, bm.base.dimension, c.scale,
                   {op: (c.rows[op], None, c.rows[l], c.rows[r], None, None)
                    for op, l, r in ops})


def semidirect_af(bm: AfBimodule) -> Algebra:
    """The algebra on A + V with (x+u)(y+v) = x*y + l(x)v + r(y)u; it is
    not validated (see semidirect_pre)."""
    _require_kind("semidirect_af", bm, AfBimodule)
    return _semidirect(Algebra, bm, [("c", "l", "r")])


def semidirect_pre(bm: PreBimodule) -> PreAlgebra:
    """The pre-algebra on A + V with
    (x+u) < (y+v) = x<y + l_prec(x)v + r_prec(y)u  (and the > analog).

    The input is deliberately not validated: the result passes the
    pre-anti-flexible check exactly when the base passes and the bimodule
    identities hold, and the test suite exercises both directions.
    """
    _require_kind("semidirect_pre", bm, PreBimodule)
    return _semidirect(PreAlgebra, bm, [(op, "l_" + op, "r_" + op)
                                        for op in ("prec", "succ")])
