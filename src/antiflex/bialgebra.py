"""Comultiplications and pre-anti-flexible bialgebras.

A comultiplication D: A -> A (x) A is stored as a rank-3 tensor d with
D(e_i) = sum_{j,k} d[i][j][k] e_j (x) e_k, so D(e_i) is the matrix d[i].
An operator pair acts by (P (x) Q) M = P M Q^T and the tensor flip sigma is
the matrix transpose.  A bialgebra couples a pre-algebra structure on A
with two comultiplications whose duals give the products on the dual
space; validity is decided through four provably equivalent routes which
the verifier cross-checks against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import PreAlgebra, CheckReport, PreconditionError, \
    basis_residuals, check_identities, scan, triple_residuals
from .bimodule import multiplication_operators, act
from .linalg import (
    basis_vec, eye, transpose, zeros_t3, mat_add, mat_sub, mat_vec, apply2,
    t3_sub,
)
from .matched import (
    standard_dual_matched, dual_pre_matched, check_pre_matched,
    build_af_double, omega_double_check, _af_matched_report,
)


@dataclass(frozen=True)
class Bialgebra:
    """A pre-algebra on A together with the two comultiplication tensors
    whose dual maps give the half-products on the dual space."""
    palg: PreAlgebra
    delta_prec: tuple  # Tensor3, d[i] = matrix of the prec comultiplication
    delta_succ: tuple

    def __post_init__(self):
        n = self.palg.dimension
        for name in ("delta_prec", "delta_succ"):
            t = getattr(self, name)
            if len(t) != n or any(len(m) != n or any(len(r) != n for r in m)
                                  for m in t):
                raise PreconditionError("Bialgebra: comultiplication tensor "
                                        "extents must equal the dimension")

    @property
    def dimension(self):
        return self.palg.dimension


def dual_products_from_comult(delta_prec, delta_succ) -> PreAlgebra:
    """The half-products on the dual space: <f_i ? f_j, e_k> = <f_i (x) f_j,
    D_?(e_k)>, i.e. plain index transposition of the comultiplication
    tensors."""
    n = len(delta_prec)
    if len(delta_succ) != n:
        raise PreconditionError("dual_products_from_comult: shape mismatch")
    prec = [[[delta_prec[k][i][j] for k in range(n)] for j in range(n)]
            for i in range(n)]
    succ = [[[delta_succ[k][i][j] for k in range(n)] for j in range(n)]
            for i in range(n)]
    return PreAlgebra(n, prec, succ,
                      tuple("f%d" % (i + 1) for i in range(n)))


def comult_from_products(palg: PreAlgebra):
    """The reverse transposition: comultiplication tensors on the dual space
    whose induced products are palg's."""
    n = palg.dimension
    dp = [[[palg.prec[j][k][i] for k in range(n)] for j in range(n)]
          for i in range(n)]
    ds = [[[palg.succ[j][k][i] for k in range(n)] for j in range(n)]
          for i in range(n)]
    return dp, ds


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


def check_dual_pre_via_rmatrix(delta_prec, delta_succ,
                               all_failures=False) -> CheckReport:
    """The two co-identities equivalent to the dual products forming a
    pre-anti-flexible algebra:

      co-m:  (Ds (x) id)Dp - (id (x) Dp)Ds
             = (id (x) sDs)sDp - (sDp (x) id)sDs
      co-lr: ((Dp + Ds) (x) id)Ds - (id (x) Ds)Ds
             = (id (x) sDp)sDp - (s(Dp + Ds) (x) id)sDp

    with s the flip.  Agreement with the plain identity check on the
    induced dual products is an invariant under test.
    """
    n = len(delta_prec)
    if len(delta_succ) != n:
        raise PreconditionError("check_dual_pre_via_rmatrix: shape mismatch")
    sp = [transpose(m) for m in delta_prec]
    ss = [transpose(m) for m in delta_succ]
    dsum = [mat_add(p, s) for p, s in zip(delta_prec, delta_succ)]
    ssum = [transpose(m) for m in dsum]

    def residuals():
        for i in range(n):
            yield "co-identity-m", (i,), t3_sub(
                t3_sub(_cofirst(delta_succ, delta_prec, i),
                       _cosecond(delta_prec, delta_succ, i)),
                t3_sub(_cosecond(ss, sp, i), _cofirst(sp, ss, i)))
            yield "co-identity-lr", (i,), t3_sub(
                t3_sub(_cofirst(dsum, delta_succ, i),
                       _cosecond(delta_succ, delta_succ, i)),
                t3_sub(_cosecond(sp, sp, i), _cofirst(ssum, sp, i)))
    return scan("dual-pre-via-comult", residuals(), all_failures)


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


def check_bialgebra_conditions(palg: PreAlgebra, delta_prec, delta_succ,
                               all_failures=False) -> CheckReport:
    """The four compatibility conditions over all basis pairs."""
    rep = check_identities(palg, "pre-anti-flexible")
    if not rep.passed:
        raise PreconditionError("check_bialgebra_conditions: base fails the "
                                "pre-anti-flexible check; witness %r"
                                % (rep.witness,))
    n = palg.dimension
    invariants = _condition_invariants(palg, delta_prec, delta_succ)
    return scan("bialgebra-conditions", (
        failure for i, j in product(range(n), repeat=2)
        for failure in _condition_residuals(palg, delta_prec, delta_succ,
                                            invariants, i, j)),
        all_failures)


# ---------------------------------------------------------------------------
# the full verifier
# ---------------------------------------------------------------------------

class ConsistencyError(AssertionError):
    """Two provably equivalent verification routes disagreed; this can only
    come from an implementation bug, never from user input."""


def verify_bialgebra(b: Bialgebra, all_failures=False,
                     _return_routes=False) -> CheckReport:
    """Joint verdict of the four equivalent characterizations.

    Routes, each a full pass/fail verdict:
      1. structure checks plus the four compatibility conditions;
      2. the dual-action matched pair of the underlying algebras passes;
      3. the induced double algebra is anti-flexible and the canonical skew
         form on it is closed;
      4. the eight-map dual-action pre pair passes the pre matched check.
    Any disagreement among the routes raises ConsistencyError.  A failing
    verdict carries the witness of the first failing check among the base
    identities, the dual co-identities and route 1, and with all_failures
    every failure of that check.
    """
    base = check_identities(b.palg, "pre-anti-flexible", all_failures)
    via_comult = check_dual_pre_via_rmatrix(b.delta_prec, b.delta_succ,
                                            all_failures)
    dual = dual_products_from_comult(b.delta_prec, b.delta_succ)
    dual_ok = check_identities(dual, "pre-anti-flexible").passed
    if via_comult.passed != dual_ok:
        raise ConsistencyError("co-identity route and induced-product route "
                               "disagree on the dual structure")
    for structure in (base, via_comult):
        if not structure.passed:
            return CheckReport(False, "bialgebra", witness=structure.witness,
                               failures=structure.failures)

    conds = check_bialgebra_conditions(b.palg, b.delta_prec, b.delta_succ,
                                       all_failures)
    route1 = conds.passed

    route2, route3 = _af_double_routes(
        standard_dual_matched(b.palg, dual, check_inputs=False))
    route4 = check_pre_matched(
        dual_pre_matched(b.palg, dual, check_inputs=False)).passed

    verdicts = (route1, route2, route3, route4)
    if len(set(verdicts)) != 1:
        raise ConsistencyError("equivalent bialgebra routes disagree: "
                               "conditions=%s matched=%s double=%s pre=%s"
                               % verdicts)
    if _return_routes:
        return verdicts
    if route1:
        return CheckReport(True, "bialgebra")
    return CheckReport(False, "bialgebra", witness=conds.witness,
                       failures=conds.failures)


def _af_double_routes(mp):
    """The verdicts of routes 2 and 3, which read one evaluator of the same
    double: route 2's conditions are blocks of route 3's identity on the
    mixed triples, so each entry is computed once."""
    d = build_af_double(mp)
    evaluate = basis_residuals(d)
    route2 = _af_matched_report(mp, evaluate).passed
    route3 = (scan("anti-flexible", triple_residuals(
        evaluate, ("anti-flexible",), d.dimension)).passed
              and omega_double_check(d).passed)
    return route2, route3


# ---------------------------------------------------------------------------
# homomorphisms and the dual bialgebra
# ---------------------------------------------------------------------------

def check_bialgebra_hom(psi, src: Bialgebra, dst: Bialgebra,
                        all_failures=False) -> CheckReport:
    """psi: A -> B a pre-algebra homomorphism whose dual is also one.

    Checked on basis elements: psi(x ? y) = psi(x) ? psi(y) for both
    half-products; (psi (x) psi) D_?A = D_?B o psi; and the dual-side
    conditions (psi* (x) psi*) beta_?B = beta_?A o psi*, where beta are the
    comultiplications dual to the products (index transpositions).
    """
    nA, nB = src.dimension, dst.dimension
    if len(psi) != nB or any(len(r) != nA for r in psi):
        raise PreconditionError("check_bialgebra_hom: psi must be a "
                                "dst-dim x src-dim matrix")
    return scan("bialgebra-hom", _hom_residuals(psi, src, dst), all_failures)


def _hom_residuals(psi, src, dst):
    nA, nB = src.dimension, dst.dimension
    for i, j in product(range(nA), repeat=2):
        x, y = basis_vec(nA, i), basis_vec(nA, j)
        px, py = mat_vec(psi, x), mat_vec(psi, y)
        for label, mine, theirs in (
                ("hom-prec", src.palg.mul_prec(x, y),
                 dst.palg.mul_prec(px, py)),
                ("hom-succ", src.palg.mul_succ(x, y),
                 dst.palg.mul_succ(px, py))):
            yield label, (i, j), [a - b for a, b in
                                  zip(mat_vec(psi, mine), theirs)]
    for i in range(nA):
        px = mat_vec(psi, basis_vec(nA, i))
        for label, dA, dB in (("hom-comult-prec", src.delta_prec,
                               dst.delta_prec),
                              ("hom-comult-succ", src.delta_succ,
                               dst.delta_succ)):
            yield label, (i,), mat_sub(apply2(psi, psi, dA[i]), act(dB, px))
    # dual side: beta maps are the comultiplications dual to the products;
    # psi*: B* -> A* has matrix psi^T.
    betaA = comult_from_products(src.palg)
    betaB = comult_from_products(dst.palg)
    psit = transpose(psi)
    for s in range(nB):
        pa = mat_vec(psit, basis_vec(nB, s))
        for label, bB, bA in (("hom-beta-prec", betaB[0], betaA[0]),
                              ("hom-beta-succ", betaB[1], betaA[1])):
            yield label, (s,), mat_sub(apply2(psit, psit, bB[s]), act(bA, pa))


def dual_bialgebra(b: Bialgebra) -> Bialgebra:
    """Exchange the roles of the algebra and the comultiplications: the dual
    structure's products are the ones induced by b's comultiplications, and
    its comultiplications are the duals of b's products.  An involution."""
    rep = verify_bialgebra(b)
    if not rep.passed:
        raise PreconditionError("dual_bialgebra: input fails verification; "
                                "witness %r" % (rep.witness,))
    dual = dual_products_from_comult(b.delta_prec, b.delta_succ)
    dp, ds = comult_from_products(b.palg)
    return Bialgebra(dual, tuple(dp), tuple(ds))
