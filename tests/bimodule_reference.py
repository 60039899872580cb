"""The bimodule identities written out as matrix expressions, one residual
per numbered identity: the reference that the rows of antiflex.bimodule
(blocks of the identity of the semidirect product) are tested against.

Also the rows read block by block at every basis pair through the
per-triple evaluator of identity_reference (block_residuals here), the
dense reader that antiflex.bimodule.block_residuals replaced, with the
rows as they were written for it."""

from itertools import product

from antiflex.bimodule import AfBimodule, PreBimodule, act
from antiflex.linalg import mat_mul, mat_sub, transpose

from helpers import commutator

# the rows of antiflex.bimodule by their arguments alone: (label, identity
# of the semidirect product, its arguments)
AF_BIMODULE = (
    ("af-bimodule-1", "anti-flexible", "xya"),
    ("af-bimodule-2", "anti-flexible", "yax"),
)

PRE_BIMODULE = (
    ("pre-bimodule-1", "pre-anti-flexible-m", "yax"),
    ("pre-bimodule-2", "pre-anti-flexible-m", "xya"),
    ("pre-bimodule-3", "pre-anti-flexible-lr", "xya"),
    ("pre-bimodule-4", "pre-anti-flexible-lr", "yax"),
    ("pre-bimodule-5", "pre-anti-flexible-lr", "ayx"),
)


def af_bimodule_residuals(bm: AfBimodule, i, j):
    """l(x*y) - l(x)l(y) = r(x)r(y) - r(y*x) and [l(x),r(y)] = [l(y),r(x)]
    on the basis pair (x, y) = (e_i, e_j)."""
    c = bm.base.product
    lxy = act(bm.l, c[i][j])
    ryx = act(bm.r, c[j][i])
    res1 = mat_sub(mat_sub(lxy, mat_mul(bm.l[i], bm.l[j])),
                   mat_sub(mat_mul(bm.r[i], bm.r[j]), ryx))
    res2 = mat_sub(commutator(bm.l[i], bm.r[j]),
                   commutator(bm.l[j], bm.r[i]))
    return [("af-bimodule-1", res1), ("af-bimodule-2", res2)]


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


def reference_residuals(bm):
    """(label, (i, j), residual) of every identity of a bimodule at every
    basis pair, in checking order."""
    residuals = af_bimodule_residuals if isinstance(bm, AfBimodule) \
        else pre_bimodule_residuals
    n = bm.base.dimension
    return [(label, (i, j), res) for i in range(n) for j in range(n)
            for label, res in residuals(bm, i, j)]


def block_residuals(rows, evaluate, base, modules):
    """(label, (i, j), residual matrix) of each row at every basis pair of
    the base, in checking order, given the basis_residuals of a structure
    in which the index ranges base and modules hold the base and the
    module: a semidirect product, or a double and one of its factors.  The
    index pair is in base coordinates; column t of the residual is the
    module block of the row's identity at a = the t-th module vector."""
    block = slice(modules.start, modules.stop)
    compiled = [(label, identity, ["xya".index(ch) for ch in args])
                for label, identity, args in rows]
    for i, j in product(base, repeat=2):
        for label, identity, (p, q, s) in compiled:
            cols = []
            for t in modules:
                idx = (i, j, t)
                res = evaluate(identity, (idx[p], idx[q], idx[s]))
                cols.append(res[block])
            yield label, (i - base.start, j - base.start), transpose(cols)
