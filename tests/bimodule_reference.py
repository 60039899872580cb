"""The bimodule identities written out as matrix expressions, one residual
per numbered identity: the reference that the rows of antiflex.bimodule
(blocks of the identity of the semidirect product) are tested against."""

from antiflex.bimodule import AfBimodule, PreBimodule, act
from antiflex.linalg import commutator, mat_mul, mat_sub


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
