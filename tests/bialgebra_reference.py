"""The bialgebra compatibility conditions and the two co-identities written
out as matrix expressions, one residual per condition: the reference that
the pairings of antiflex.bialgebra (entries of the anti-flexible identity of
the AF double, and of the dual products' identities) are tested against.

Also the same pairings read at every basis tuple through the per-triple
evaluator of identity_reference (pairing_residuals and
co_identity_pairings here), the dense readers that route 1 and the
co-identity tables of antiflex.bialgebra replaced, with the rows as they
were written for them.

And the bialgebra homomorphism check as it was before its dual side was
read off the product side: the beta comultiplications built by
comult_from_products and compared through mat_mul and act."""

from itertools import product

from antiflex.algebra import PreAlgebra, CheckReport, require_matrix, scan
from antiflex.bialgebra import Bialgebra, comult_from_products
from antiflex.bimodule import act
from antiflex.linalg import (
    eye, transpose, zeros_t3, mat_add, mat_mul, mat_sub, mat_vec, t3_sub,
)

from helpers import apply2, basis_vec, multiplication_operators, vec_neg


# ---------------------------------------------------------------------------
# the two co-identities
# ---------------------------------------------------------------------------

def _cofirst(delta, other, i):
    """(D_delta (x) id) D_other (e_i) as a rank-3 coefficient tensor
    t[p][q][k] = sum_j other[i][j][k] delta[j][p][q], over nonzero terms."""
    n = len(delta)
    t = zeros_t3(n)
    for j, row in enumerate(other[i]):
        for k, o in enumerate(row):
            if o:
                for p, drow in enumerate(delta[j]):
                    for q, d in enumerate(drow):
                        if d:
                            t[p][q][k] += o * d
    return t


def _cosecond(delta, other, i):
    """(id (x) D_delta) D_other (e_i) as t[j][p][q] = sum_k other[i][j][k]
    delta[k][p][q], over nonzero terms."""
    n = len(delta)
    t = zeros_t3(n)
    for j, row in enumerate(other[i]):
        for k, o in enumerate(row):
            if o:
                for p, drow in enumerate(delta[k]):
                    for q, d in enumerate(drow):
                        if d:
                            t[j][p][q] += o * d
    return t


def co_identity_residuals(delta_prec, delta_succ):
    """(label, (i,), residual) of the two co-identities at every e_i:

      co-m:  (Ds (x) id)Dp - (id (x) Dp)Ds
             = (id (x) sDs)sDp - (sDp (x) id)sDs
      co-lr: ((Dp + Ds) (x) id)Ds - (id (x) Ds)Ds
             = (id (x) sDp)sDp - (s(Dp + Ds) (x) id)sDp

    with s the flip.
    """
    n = len(delta_prec)
    sp = [transpose(m) for m in delta_prec]
    ss = [transpose(m) for m in delta_succ]
    dsum = [mat_add(p, s) for p, s in zip(delta_prec, delta_succ)]
    ssum = [transpose(m) for m in dsum]
    for i in range(n):
        yield "co-identity-m", (i,), t3_sub(
            t3_sub(_cofirst(delta_succ, delta_prec, i),
                   _cosecond(delta_prec, delta_succ, i)),
            t3_sub(_cosecond(ss, sp, i), _cofirst(sp, ss, i)))
        yield "co-identity-lr", (i,), t3_sub(
            t3_sub(_cofirst(dsum, delta_succ, i),
                   _cosecond(delta_succ, delta_succ, i)),
            t3_sub(_cosecond(sp, sp, i), _cofirst(ssum, sp, i)))


# ---------------------------------------------------------------------------
# the four compatibility conditions
# ---------------------------------------------------------------------------

def bialgebra_condition_residuals(palg: PreAlgebra, delta_prec, delta_succ,
                                  i, j):
    """Residual matrices of the four compatibility conditions on the basis
    pair x = e_i, y = e_j.  With D = Dp + Ds, s the flip, and L/R the
    regular multiplication operators of palg:

      1:  Ds(x.y) - (Rp(y) (x) id)Ds(x) - (id (x) Ld(x))Ds(y)
          = s(id (x) Ls(y))Dp(x) + s(Rd(x) (x) id)Dp(y) - sDp(y.x)
      3:  s(Ld(y) (x) id - id (x) Rp(y))Dp(x)
            + (Ls(x) (x) id - id (x) Rd(x))Ds(y)
          = s(Ld(x) (x) id - id (x) Rp(x))Dp(y)
            + (Ls(y) (x) id - id (x) Rd(y))Ds(x)
      2': D(x>y) - (Rs(y) (x) id)Dp(x) - (id (x) Ls(x))D(y)
          = (Lp(y) (x) id)sDs(x) + (id (x) Rp(x))sD(y) - sD(y<x)
      4': (id (x) Rs(y))Ds(x) - (Lp(y) (x) id)Dp(x)
            + (Rp(x) (x) id - id (x) Ls(x))sD(y)
          = (Rs(y) (x) id)sDs(x) - (id (x) Lp(y))sDp(x)
            + (id (x) Rp(x) - Ls(x) (x) id)D(y)
    """
    return _condition_residuals(
        palg, delta_prec, delta_succ,
        _condition_invariants(palg, delta_prec, delta_succ), i, j)


def condition_residuals(palg: PreAlgebra, delta_prec, delta_succ):
    """(label, (i, j), residual) of the four conditions at every basis
    pair, in checking order."""
    n = palg.dimension
    invariants = _condition_invariants(palg, delta_prec, delta_succ)
    for i, j in product(range(n), repeat=2):
        yield from _condition_residuals(palg, delta_prec, delta_succ,
                                        invariants, i, j)


def _condition_invariants(palg, delta_prec, delta_succ):
    """What the four conditions share over every basis pair: the regular
    operators of palg, the identity matrix and D = Dp + Ds."""
    return (multiplication_operators(palg), eye(palg.dimension),
            [mat_add(p, s) for p, s in zip(delta_prec, delta_succ)])


def _condition_residuals(palg, delta_prec, delta_succ, invariants, i, j):
    """bialgebra_condition_residuals, given the _condition_invariants."""
    ops, I, dsum = invariants
    Lp, Rp = ops["L_prec"], ops["R_prec"]
    Ls, Rs = ops["L_succ"], ops["R_succ"]
    Ld, Rd = ops["L_dot"], ops["R_dot"]
    n = palg.dimension
    x, y = basis_vec(n, i), basis_vec(n, j)
    Ds_x, Ds_y = delta_succ[i], delta_succ[j]
    Dp_x, Dp_y = delta_prec[i], delta_prec[j]
    D_y = dsum[j]
    Ds_xy = act(delta_succ, palg.mul_dot(x, y))
    Dp_yx = act(delta_prec, palg.mul_dot(y, x))
    D_xsy = act(dsum, palg.mul_succ(x, y))
    D_ypx = act(dsum, palg.mul_prec(y, x))

    out = []
    r1 = mat_sub(
        mat_sub(mat_sub(Ds_xy, apply2(Rp[j], I, Ds_x)),
                apply2(I, Ld[i], Ds_y)),
        mat_sub(mat_add(transpose(apply2(I, Ls[j], Dp_x)),
                        transpose(apply2(Rd[i], I, Dp_y))),
                transpose(Dp_yx)))
    out.append(("bialgebra-1", (i, j), r1))
    lhs = mat_add(
        transpose(mat_sub(apply2(Ld[j], I, Dp_x), apply2(I, Rp[j], Dp_x))),
        mat_sub(apply2(Ls[i], I, Ds_y), apply2(I, Rd[i], Ds_y)))
    rhs = mat_add(
        transpose(mat_sub(apply2(Ld[i], I, Dp_y), apply2(I, Rp[i], Dp_y))),
        mat_sub(apply2(Ls[j], I, Ds_x), apply2(I, Rd[j], Ds_x)))
    out.append(("bialgebra-3", (i, j), mat_sub(lhs, rhs)))
    r2 = mat_sub(
        mat_sub(mat_sub(D_xsy, apply2(Rs[j], I, Dp_x)),
                apply2(I, Ls[i], D_y)),
        mat_sub(mat_add(apply2(Lp[j], I, transpose(Ds_x)),
                        apply2(I, Rp[i], transpose(D_y))),
                transpose(D_ypx)))
    out.append(("bialgebra-2p", (i, j), r2))
    lhs = mat_add(
        mat_sub(apply2(I, Rs[j], Ds_x), apply2(Lp[j], I, Dp_x)),
        mat_sub(apply2(Rp[i], I, transpose(D_y)),
                apply2(I, Ls[i], transpose(D_y))))
    rhs = mat_add(
        mat_sub(apply2(Rs[j], I, transpose(Ds_x)),
                apply2(I, Lp[j], transpose(Dp_x))),
        mat_sub(apply2(I, Rp[i], D_y), apply2(Ls[i], I, D_y)))
    out.append(("bialgebra-4p", (i, j), mat_sub(lhs, rhs)))
    return out


# ---------------------------------------------------------------------------
# the pairings, read per basis tuple
# ---------------------------------------------------------------------------

# the rows of antiflex.bialgebra by their arguments alone
CO_IDENTITIES = (("co-identity-m", "pre-anti-flexible-m"),
                 ("co-identity-lr", "pre-anti-flexible-lr"))

BIALGEBRA_CONDITIONS = (
    ("bialgebra-1", "xya", 1),
    ("bialgebra-3", "xay", 1),
    ("bialgebra-2p", "xba", -1),
    ("bialgebra-4p", "axb", 1),
)


def co_identity_pairings(evaluate, n):
    """(label, (i,), residual) of the two co-identities at every e_i, given
    the per-triple evaluator of the n-dimensional dual products: entry
    [p][q][k] is coordinate i of the identity at (f_p, f_q, f_k)."""
    tables = {}     # identity -> its residuals at every dual triple
    for i in range(n):
        for label, identity in CO_IDENTITIES:
            if identity not in tables:
                tables[identity] = [[[evaluate(identity, (p, q, k))
                                      for k in range(n)]
                                     for q in range(n)]
                                    for p in range(n)]
            yield label, (i,), [[[v[i] for v in row] for row in plane]
                                for plane in tables[identity]]


def pairing_residuals(n, evaluate):
    """(label, (i, j), residual) of the four conditions at every basis
    pair, in checking order, given the per-triple evaluator of the AF
    double."""
    def identity(args, **at):
        return evaluate("anti-flexible", tuple(at[c] for c in args))

    for i in range(n):
        no_y = {}   # the rows without y do not change with j
        for j in range(n):
            for label, args, sign in BIALGEBRA_CONDITIONS:
                if "y" in args:
                    res = [identity(args, x=i, y=j, a=n + p)[:n]
                           for p in range(n)]
                else:
                    if label not in no_y:
                        no_y[label] = [[identity(args, x=i, a=n + p, b=n + q)
                                        for q in range(n)]
                                       for p in range(n)]
                    res = [[v[n + j] for v in row] for row in no_y[label]]
                yield label, (i, j), res if sign > 0 else \
                    [vec_neg(row) for row in res]


# ---------------------------------------------------------------------------
# homomorphisms, the dual side through the comultiplications
# ---------------------------------------------------------------------------

def check_bialgebra_hom(psi, src: Bialgebra, dst: Bialgebra,
                        all_failures=False) -> CheckReport:
    """psi: A -> B a pre-algebra homomorphism whose dual is also one.

    Checked on basis elements: psi(x ? y) = psi(x) ? psi(y) for both
    half-products; (psi (x) psi) D_?A = D_?B o psi; and the dual-side
    conditions (psi* (x) psi*) beta_?B = beta_?A o psi*, where beta are the
    comultiplications dual to the products (index transpositions).
    """
    require_matrix("check_bialgebra_hom", "psi", psi, dst.dimension,
                   src.dimension)
    return scan("bialgebra-hom", _hom_residuals(psi, src, dst), all_failures)


def _hom_residuals(psi, src, dst):
    """On the product rows of src and the columns of psi, the rows of its
    transpose: psi(e_i) is psit[i] and psi*(f_s) is psi[s]."""
    nA, nB = src.dimension, dst.dimension
    psit = transpose(psi)
    for i, j in product(range(nA), repeat=2):
        px, py = psit[i], psit[j]
        for label, mine, theirs in (
                ("hom-prec", src.palg.prec[i][j], dst.palg.mul_prec(px, py)),
                ("hom-succ", src.palg.succ[i][j], dst.palg.mul_succ(px, py))):
            yield label, (i, j), [a - b for a, b in
                                  zip(mat_vec(psi, mine), theirs)]
    for i in range(nA):
        for label, dA, dB in (("hom-comult-prec", src.delta_prec,
                               dst.delta_prec),
                              ("hom-comult-succ", src.delta_succ,
                               dst.delta_succ)):
            yield label, (i,), mat_sub(mat_mul(mat_mul(psi, dA[i]), psit),
                                       act(dB, psit[i]))
    # dual side: beta maps are the comultiplications dual to the products;
    # psi*: B* -> A* has matrix psi^T.
    betaA = comult_from_products(src.palg)
    betaB = comult_from_products(dst.palg)
    for s in range(nB):
        pa = psi[s]
        for label, bB, bA in (("hom-beta-prec", betaB[0], betaA[0]),
                              ("hom-beta-succ", betaB[1], betaA[1])):
            yield label, (s,), mat_sub(mat_mul(mat_mul(psit, bB[s]), psi),
                                       act(bA, pa))
