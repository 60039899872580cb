"""Matched pairs of anti-flexible and of pre-anti-flexible algebras.

A matched pair is two algebras acting on each other by bimodules such that
the direct sum carries a single structure of the same class.  The
compatibility conditions are transcribed one residual per numbered identity
and evaluated over mixed basis tuples, which is complete by multilinearity;
the double products are built blockwise with the fixed convention A-basis
first, then B-basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, PreAlgebra, CheckReport, PreconditionError, \
    _report, check_identities, underlying_algebra
from .bimodule import AfBimodule, PreBimodule, act, check_af_bimodule, \
    check_pre_bimodule, multiplication_operators
from .linalg import (
    ONE, basis_vec, dot, vec_add, vec_sub, vec_neg, vec_is_zero, zeros_t3,
    zeros_mat, mat_add, mat_vec, transpose,
)


@dataclass(frozen=True)
class AfMatchedPair:
    """Two anti-flexible algebras with mutual actions lA, rA: A -> End(B)
    and lB, rB: B -> End(A), each stored per basis element."""
    algA: Algebra
    algB: Algebra
    lA: tuple
    rA: tuple
    lB: tuple
    rB: tuple

    def __post_init__(self):
        for name in ("lA", "rA", "lB", "rB"):
            object.__setattr__(self, name, tuple(getattr(self, name)))


@dataclass(frozen=True)
class PreMatchedPair:
    """Two pre-anti-flexible algebras with mutual four-map actions.

    ls_A, rs_A, lp_A, rp_A: A -> End(B) (succ/prec left/right actions);
    ls_B, rs_B, lp_B, rp_B: B -> End(A).
    """
    palgA: PreAlgebra
    palgB: PreAlgebra
    ls_A: tuple
    rs_A: tuple
    lp_A: tuple
    rp_A: tuple
    ls_B: tuple
    rs_B: tuple
    lp_B: tuple
    rp_B: tuple

    def __post_init__(self):
        for name in ("ls_A", "rs_A", "lp_A", "rp_A",
                     "ls_B", "rs_B", "lp_B", "rp_B"):
            object.__setattr__(self, name, tuple(getattr(self, name)))


# ---------------------------------------------------------------------------
# anti-flexible matched pairs
# ---------------------------------------------------------------------------

def af_matched_residuals_A(mp: AfMatchedPair, i, j, s):
    """Conditions 1 and 3, valued in A, on x = e_i, y = e_j of A and
    a = f_s of B.  Term for term:

      1: lB(a)(x*y) + rB(a)(y*x) - rB(lA(x)a)y - y*(rB(a)x)
         - lB(rA(x)a)y - (lB(a)x)*y = 0
      3: y*(lB(a)x) + (rB(a)x)*y - (rB(a)y)*x - lB(lA(y)a)x
         + rB(rA(x)a)y + lB(lA(x)a)y - x*(lB(a)y) - rB(rA(y)a)x = 0
    """
    A = mp.algA
    lA, rA, lB, rB = mp.lA, mp.rA, mp.lB, mp.rB
    nA, nB = A.dimension, mp.algB.dimension
    x, y = basis_vec(nA, i), basis_vec(nA, j)
    a = basis_vec(nB, s)
    r1 = vec_sub(
        vec_add(mat_vec(lB[s], A.mul(x, y)),
                mat_vec(rB[s], A.mul(y, x))),
        vec_add(mat_vec(act(rB, mat_vec(lA[i], a)), y),
                A.mul(y, mat_vec(rB[s], x)),
                mat_vec(act(lB, mat_vec(rA[i], a)), y),
                A.mul(mat_vec(lB[s], x), y)))
    r3 = vec_sub(
        vec_add(A.mul(y, mat_vec(lB[s], x)),
                A.mul(mat_vec(rB[s], x), y),
                mat_vec(act(rB, mat_vec(rA[i], a)), y),
                mat_vec(act(lB, mat_vec(lA[i], a)), y)),
        vec_add(A.mul(mat_vec(rB[s], y), x),
                mat_vec(act(lB, mat_vec(lA[j], a)), x),
                A.mul(x, mat_vec(lB[s], y)),
                mat_vec(act(rB, mat_vec(rA[j], a)), x)))
    return [("af-matched-1", (i, j, s), r1), ("af-matched-3", (i, j, s), r3)]


def af_matched_residuals_B(mp: AfMatchedPair, i, s, t):
    """Conditions 2 and 4, valued in B, on x = e_i of A and a = f_s,
    b = f_t of B.  Term for term, condition 2 being the exact mirror of
    condition 1 under exchange of the two algebras (the mirrored sign on
    the fifth term is the one equivalent to validity of the double product,
    verified exhaustively on small dual-action pairs):

      2: lA(x)(a o b) + rA(x)(b o a) - rA(lB(a)x)b - b o (rA(x)a)
         - lA(rB(a)x)b - (lA(x)a) o b = 0
      4: b o (lA(x)a) + (rA(x)a) o b - (rA(x)b) o a - lA(lB(b)x)a
         + rA(rB(a)x)b + lA(lB(a)x)b - a o (lA(x)b) - rA(rB(b)x)a = 0
    """
    B = mp.algB
    lA, rA, lB, rB = mp.lA, mp.rA, mp.lB, mp.rB
    nA, nB = mp.algA.dimension, B.dimension
    x = basis_vec(nA, i)
    a, b = basis_vec(nB, s), basis_vec(nB, t)
    r2 = vec_sub(
        vec_add(mat_vec(lA[i], B.mul(a, b)),
                mat_vec(rA[i], B.mul(b, a))),
        vec_add(mat_vec(act(rA, mat_vec(lB[s], x)), b),
                B.mul(b, mat_vec(rA[i], a)),
                mat_vec(act(lA, mat_vec(rB[s], x)), b),
                B.mul(mat_vec(lA[i], a), b)))
    r4 = vec_sub(
        vec_add(B.mul(b, mat_vec(lA[i], a)),
                B.mul(mat_vec(rA[i], a), b),
                mat_vec(act(rA, mat_vec(rB[s], x)), b),
                mat_vec(act(lA, mat_vec(lB[s], x)), b)),
        vec_add(B.mul(mat_vec(rA[i], b), a),
                mat_vec(act(lA, mat_vec(lB[t], x)), a),
                B.mul(a, mat_vec(lA[i], b)),
                mat_vec(act(rA, mat_vec(rB[t], x)), a)))
    return [("af-matched-2", (i, s, t), r2), ("af-matched-4", (i, s, t), r4)]


def check_af_matched(mp: AfMatchedPair, all_failures=False,
                     require_bimodules=True) -> CheckReport:
    """The four mixed compatibility conditions over all basis tuples."""
    if require_bimodules:
        for name, bm in (("A-on-B", AfBimodule(mp.algA, mp.algB.dimension,
                                               mp.lA, mp.rA)),
                         ("B-on-A", AfBimodule(mp.algB, mp.algA.dimension,
                                               mp.lB, mp.rB))):
            rep = check_af_bimodule(bm)
            if not rep.passed:
                raise PreconditionError(
                    "check_af_matched: component bimodule %s fails; witness %r"
                    % (name, rep.witness))
    nA, nB = mp.algA.dimension, mp.algB.dimension
    failures = []
    for i in range(nA):
        for j in range(nA):
            for s in range(nB):
                for label, idx, res in af_matched_residuals_A(mp, i, j, s):
                    if not vec_is_zero(res):
                        failures.append((label, idx, res))
                        if not all_failures:
                            return _report("af-matched", failures)
        for s in range(nB):
            for t in range(nB):
                for label, idx, res in af_matched_residuals_B(mp, i, s, t):
                    if not vec_is_zero(res):
                        failures.append((label, idx, res))
                        if not all_failures:
                            return _report("af-matched", failures)
    return _report("af-matched", failures, all_failures)


def build_af_double(mp: AfMatchedPair) -> Algebra:
    """(x+a)(y+b) = (x*y + lB(a)y + rB(b)x) + (a o b + lA(x)b + rA(y)a)."""
    nA, nB = mp.algA.dimension, mp.algB.dimension
    d = nA + nB
    c = zeros_t3(d)
    for i in range(nA):
        for j in range(nA):
            for k in range(nA):
                c[i][j][k] = mp.algA.product[i][j][k]
    for s in range(nB):
        for t in range(nB):
            for k in range(nB):
                c[nA + s][nA + t][nA + k] = mp.algB.product[s][t][k]
    for s in range(nB):       # a * y: lB(a)y in A and rA(y)a in B
        for j in range(nA):
            for k in range(nA):
                c[nA + s][j][k] = mp.lB[s][k][j]
            for k in range(nB):
                c[nA + s][j][nA + k] = mp.rA[j][k][s]
    for i in range(nA):       # x * b: rB(b)x in A and lA(x)b in B
        for t in range(nB):
            for k in range(nA):
                c[i][nA + t][k] = mp.rB[t][k][i]
            for k in range(nB):
                c[i][nA + t][nA + k] = mp.lA[i][k][t]
    names = tuple(mp.algA.basis_names) + tuple(
        n + "'" for n in mp.algB.basis_names)
    return Algebra(d, c, names)


# ---------------------------------------------------------------------------
# pre-anti-flexible matched pairs
# ---------------------------------------------------------------------------

def pre_matched_residuals_A(mp: PreMatchedPair, i, j, s):
    """The five A-valued compatibility conditions on x = e_i, y = e_j of A
    and a = f_s of B (with ls/rs/lp/rp the succ/prec action families and
    ld = lp + ls, rd = rp + rs):

      1: (lsB(a)x)<y + lpB(rsA(x)a)y - lsB(a)(x<y)
         = rpB(a)(y>x) - y>(rpB(a)x) - rsB(lpA(x)a)y
      3: (ldB(a)x)>y + lsB(rdA(x)a)y - lsB(a)(x>y)
         = rpB(a)(y<x) - y<(rdB(a)x) - rpB(ldA(x)a)y
      4: rsB(a)(x.y) - x>(rsB(a)y) - rsB(lsA(y)a)x
         = (lpB(a)y)<x + lpB(rpA(y)a)x - lpB(a)(y.x)
      7: (rsB(a)x)<y + lpB(lsA(x)a)y - x>(lpB(a)y) - rsB(rpA(y)a)x
         = (rsB(a)y)<x + lpB(lsA(y)a)x - y>(lpB(a)x) - rsB(rpA(x)a)y
      9: (rdB(a)x)>y + lsB(ldA(x)a)y - x>(lsB(a)y) - rsB(rsA(y)a)x
         = (rpB(a)y)<x + lpB(lpA(y)a)x - y<(ldB(a)x) - rpB(rdA(x)a)y
    """
    A = mp.palgA
    nA, nB = A.dimension, mp.palgB.dimension
    mv = mat_vec
    x, y = basis_vec(nA, i), basis_vec(nA, j)
    a = basis_vec(nB, s)
    LS_A, RS_A = act(mp.ls_A, x), act(mp.rs_A, x)
    LP_A, RP_A = act(mp.lp_A, x), act(mp.rp_A, x)
    LS_Ay, RS_Ay = act(mp.ls_A, y), act(mp.rs_A, y)
    LP_Ay, RP_Ay = act(mp.lp_A, y), act(mp.rp_A, y)
    LS_B, RS_B = act(mp.ls_B, a), act(mp.rs_B, a)
    LP_B, RP_B = act(mp.lp_B, a), act(mp.rp_B, a)
    LD_B, RD_B = mat_add(LP_B, LS_B), mat_add(RP_B, RS_B)
    out = []
    res = vec_sub(
        vec_add(A.mul_prec(mv(LS_B, x), y),
                mv(act(mp.lp_B, mv(RS_A, a)), y)),
        vec_add(mv(LS_B, A.mul_prec(x, y)),
                mv(RP_B, A.mul_succ(y, x)),
                vec_neg(A.mul_succ(y, mv(RP_B, x))),
                vec_neg(mv(act(mp.rs_B, mv(LP_A, a)), y))))
    out.append(("pre-matched-1", (i, j, s), res))
    res = vec_sub(
        vec_add(A.mul_succ(mv(LD_B, x), y),
                mv(act(mp.ls_B, vec_add(mv(RP_A, a), mv(RS_A, a))), y)),
        vec_add(mv(LS_B, A.mul_succ(x, y)),
                mv(RP_B, A.mul_prec(y, x)),
                vec_neg(A.mul_prec(y, mv(RD_B, x))),
                vec_neg(mv(act(mp.rp_B, vec_add(mv(LP_A, a),
                                                mv(LS_A, a))), y))))
    out.append(("pre-matched-3", (i, j, s), res))
    res = vec_sub(
        vec_add(mv(RS_B, A.mul_dot(x, y)),
                vec_neg(A.mul_succ(x, mv(RS_B, y))),
                vec_neg(mv(act(mp.rs_B, mv(LS_Ay, a)), x))),
        vec_add(A.mul_prec(mv(LP_B, y), x),
                mv(act(mp.lp_B, mv(RP_Ay, a)), x),
                vec_neg(mv(LP_B, A.mul_dot(y, x)))))
    out.append(("pre-matched-4", (i, j, s), res))
    lhs = vec_add(A.mul_prec(mv(RS_B, x), y),
                  mv(act(mp.lp_B, mv(LS_A, a)), y),
                  vec_neg(A.mul_succ(x, mv(LP_B, y))),
                  vec_neg(mv(act(mp.rs_B, mv(RP_Ay, a)), x)))
    rhs = vec_add(A.mul_prec(mv(RS_B, y), x),
                  mv(act(mp.lp_B, mv(LS_Ay, a)), x),
                  vec_neg(A.mul_succ(y, mv(LP_B, x))),
                  vec_neg(mv(act(mp.rs_B, mv(RP_A, a)), y)))
    out.append(("pre-matched-7", (i, j, s), vec_sub(lhs, rhs)))
    lhs = vec_add(A.mul_succ(mv(RD_B, x), y),
                  mv(act(mp.ls_B, vec_add(mv(LP_A, a), mv(LS_A, a))), y),
                  vec_neg(A.mul_succ(x, mv(LS_B, y))),
                  vec_neg(mv(act(mp.rs_B, mv(RS_Ay, a)), x)))
    rhs = vec_add(A.mul_prec(mv(RP_B, y), x),
                  mv(act(mp.lp_B, mv(LP_Ay, a)), x),
                  vec_neg(A.mul_prec(y, mv(LD_B, x))),
                  vec_neg(mv(act(mp.rp_B, vec_add(mv(RP_A, a),
                                                  mv(RS_A, a))), y)))
    out.append(("pre-matched-9", (i, j, s), vec_sub(lhs, rhs)))
    return out


def pre_matched_residuals_B(mp: PreMatchedPair, i, s, t):
    """The five B-valued compatibility conditions on x = e_i of A and
    a = f_s, b = f_t of B — mirror images of conditions 1, 3, 4, 7, 9 with
    the roles of the two algebras exchanged:

      2:  (lsA(x)b)<a + lpA(rsB(b)x)a - lsA(x)(b<a)
          = rpA(x)(a>b) - a>(rpA(x)b) - rsA(lpB(b)x)a
      5:  (ldA(x)b)>a + lsA(rdB(b)x)a - lsA(x)(b>a)
          = rpA(x)(a<b) - a<(rdA(x)b) - rpA(ldB(b)x)a
      6:  rsA(x)(a.b) - a>(rsA(x)b) - rsA(lsB(b)x)a
          = (lpA(x)b)<a + lpA(rpB(b)x)a - lpA(x)(b.a)
      8:  (rsA(x)a)<b + lpA(lsB(a)x)b - a>(lpA(x)b) - rsA(rpB(b)x)a
          = (rsA(x)b)<a + lpA(lsB(b)x)a - b>(lpA(x)a) - rsA(rpB(a)x)b
      10: (rdA(x)a)>b + lsA(ldB(a)x)b - a>(lsA(x)b) - rsA(rsB(b)x)a
          = (rpA(x)b)<a + lpA(lpB(b)x)a - b<(ldA(x)a) - rpA(rdB(a)x)b

    Every product joining two B elements is read in B, including the first
    product on the right side of condition 6 (the only shape-consistent
    reading).
    """
    B = mp.palgB
    nA, nB = mp.palgA.dimension, B.dimension
    mv = mat_vec
    x = basis_vec(nA, i)
    a, b = basis_vec(nB, s), basis_vec(nB, t)
    LS_A, RS_A = act(mp.ls_A, x), act(mp.rs_A, x)
    LP_A, RP_A = act(mp.lp_A, x), act(mp.rp_A, x)
    LD_A, RD_A = mat_add(LP_A, LS_A), mat_add(RP_A, RS_A)
    LS_B, RS_B = act(mp.ls_B, a), act(mp.rs_B, a)
    LP_B, RP_B = act(mp.lp_B, a), act(mp.rp_B, a)
    LS_Bb, RS_Bb = act(mp.ls_B, b), act(mp.rs_B, b)
    LP_Bb, RP_Bb = act(mp.lp_B, b), act(mp.rp_B, b)
    out = []
    res = vec_sub(
        vec_add(B.mul_prec(mv(LS_A, b), a),
                mv(act(mp.lp_A, mv(RS_Bb, x)), a)),
        vec_add(mv(LS_A, B.mul_prec(b, a)),
                mv(RP_A, B.mul_succ(a, b)),
                vec_neg(B.mul_succ(a, mv(RP_A, b))),
                vec_neg(mv(act(mp.rs_A, mv(LP_Bb, x)), a))))
    out.append(("pre-matched-2", (i, s, t), res))
    res = vec_sub(
        vec_add(B.mul_succ(mv(LD_A, b), a),
                mv(act(mp.ls_A, vec_add(mv(RP_Bb, x), mv(RS_Bb, x))), a)),
        vec_add(mv(LS_A, B.mul_succ(b, a)),
                mv(RP_A, B.mul_prec(a, b)),
                vec_neg(B.mul_prec(a, mv(RD_A, b))),
                vec_neg(mv(act(mp.rp_A, vec_add(mv(LP_Bb, x),
                                                mv(LS_Bb, x))), a))))
    out.append(("pre-matched-5", (i, s, t), res))
    res = vec_sub(
        vec_add(mv(RS_A, B.mul_dot(a, b)),
                vec_neg(B.mul_succ(a, mv(RS_A, b))),
                vec_neg(mv(act(mp.rs_A, mv(LS_Bb, x)), a))),
        vec_add(B.mul_prec(mv(LP_A, b), a),
                mv(act(mp.lp_A, mv(RP_Bb, x)), a),
                vec_neg(mv(LP_A, B.mul_dot(b, a)))))
    out.append(("pre-matched-6", (i, s, t), res))
    lhs = vec_add(B.mul_prec(mv(RS_A, a), b),
                  mv(act(mp.lp_A, mv(LS_B, x)), b),
                  vec_neg(B.mul_succ(a, mv(LP_A, b))),
                  vec_neg(mv(act(mp.rs_A, mv(RP_Bb, x)), a)))
    rhs = vec_add(B.mul_prec(mv(RS_A, b), a),
                  mv(act(mp.lp_A, mv(LS_Bb, x)), a),
                  vec_neg(B.mul_succ(b, mv(LP_A, a))),
                  vec_neg(mv(act(mp.rs_A, mv(RP_B, x)), b)))
    out.append(("pre-matched-8", (i, s, t), vec_sub(lhs, rhs)))
    lhs = vec_add(B.mul_succ(mv(RD_A, a), b),
                  mv(act(mp.ls_A, vec_add(mv(LP_B, x), mv(LS_B, x))), b),
                  vec_neg(B.mul_succ(a, mv(LS_A, b))),
                  vec_neg(mv(act(mp.rs_A, mv(RS_Bb, x)), a)))
    rhs = vec_add(B.mul_prec(mv(RP_A, b), a),
                  mv(act(mp.lp_A, mv(LP_Bb, x)), a),
                  vec_neg(B.mul_prec(b, mv(LD_A, a))),
                  vec_neg(mv(act(mp.rp_A, vec_add(mv(RP_B, x),
                                                  mv(RS_B, x))), b)))
    out.append(("pre-matched-10", (i, s, t), vec_sub(lhs, rhs)))
    return out


def check_pre_matched(mp: PreMatchedPair, all_failures=False,
                      require_bimodules=True) -> CheckReport:
    """The ten mixed compatibility conditions over all basis tuples."""
    if require_bimodules:
        for name, bm in (
                ("A-on-B", PreBimodule(mp.palgA, mp.palgB.dimension,
                                       mp.ls_A, mp.rs_A, mp.lp_A, mp.rp_A)),
                ("B-on-A", PreBimodule(mp.palgB, mp.palgA.dimension,
                                       mp.ls_B, mp.rs_B, mp.lp_B, mp.rp_B))):
            rep = check_pre_bimodule(bm)
            if not rep.passed:
                raise PreconditionError(
                    "check_pre_matched: component bimodule %s fails; "
                    "witness %r" % (name, rep.witness))
    nA, nB = mp.palgA.dimension, mp.palgB.dimension
    failures = []
    for i in range(nA):
        for j in range(nA):
            for s in range(nB):
                for label, idx, res in pre_matched_residuals_A(mp, i, j, s):
                    if not vec_is_zero(res):
                        failures.append((label, idx, res))
                        if not all_failures:
                            return _report("pre-matched", failures)
        for s in range(nB):
            for t in range(nB):
                for label, idx, res in pre_matched_residuals_B(mp, i, s, t):
                    if not vec_is_zero(res):
                        failures.append((label, idx, res))
                        if not all_failures:
                            return _report("pre-matched", failures)
    return _report("pre-matched", failures, all_failures)


def build_pre_double(mp: PreMatchedPair) -> PreAlgebra:
    """(x+a) < (y+b) = {x<y + lpB(a)y + rpB(b)x} + {a<b + lpA(x)b + rpA(y)a},
    and the > analog, blockwise on A + B."""
    nA, nB = mp.palgA.dimension, mp.palgB.dimension
    d = nA + nB
    prec = zeros_t3(d)
    succ = zeros_t3(d)
    for out, cA, cB, lXB, rXB, lXA, rXA in (
            (prec, mp.palgA.prec, mp.palgB.prec,
             mp.lp_B, mp.rp_B, mp.lp_A, mp.rp_A),
            (succ, mp.palgA.succ, mp.palgB.succ,
             mp.ls_B, mp.rs_B, mp.ls_A, mp.rs_A)):
        for i in range(nA):
            for j in range(nA):
                for k in range(nA):
                    out[i][j][k] = cA[i][j][k]
        for s in range(nB):
            for u in range(nB):
                for k in range(nB):
                    out[nA + s][nA + u][nA + k] = cB[s][u][k]
        for s in range(nB):       # a ? y: lX_B(a)y in A and rX_A(y)a in B
            for j in range(nA):
                for k in range(nA):
                    out[nA + s][j][k] = lXB[s][k][j]
                for k in range(nB):
                    out[nA + s][j][nA + k] = rXA[j][k][s]
        for i in range(nA):       # x ? b: rX_B(b)x in A and lX_A(x)b in B
            for u in range(nB):
                for k in range(nA):
                    out[i][nA + u][k] = rXB[u][k][i]
                for k in range(nB):
                    out[i][nA + u][nA + k] = lXA[i][k][u]
    names = tuple(mp.palgA.basis_names) + tuple(
        n + "'" for n in mp.palgB.basis_names)
    return PreAlgebra(d, prec, succ, names)


def summed_af_matched(mp: PreMatchedPair) -> AfMatchedPair:
    """The matched pair of underlying algebras with the summed action maps."""
    return AfMatchedPair(
        underlying_algebra(mp.palgA), underlying_algebra(mp.palgB),
        tuple(mat_add(p, s) for p, s in zip(mp.lp_A, mp.ls_A)),
        tuple(mat_add(p, s) for p, s in zip(mp.rp_A, mp.rs_A)),
        tuple(mat_add(p, s) for p, s in zip(mp.lp_B, mp.ls_B)),
        tuple(mat_add(p, s) for p, s in zip(mp.rp_B, mp.rs_B)))


# ---------------------------------------------------------------------------
# the standard dual pair and the skew form on A + A*
# ---------------------------------------------------------------------------

def standard_dual_matched(palgA: PreAlgebra, palgAstar: PreAlgebra,
                          check_inputs=True) -> AfMatchedPair:
    """The dual-action candidate matched pair (R*_prec, L*_succ) of the two
    underlying algebras of a pre-algebra and a companion structure on its
    dual space.  Validity is not asserted here: whether the compatibility
    conditions hold is exactly what check_af_matched and the skew-form
    criterion decide."""
    if palgA.dimension != palgAstar.dimension:
        raise PreconditionError("standard_dual_matched: dimension mismatch")
    if check_inputs:
        for name, p in (("first", palgA), ("second", palgAstar)):
            rep = check_identities(p, "pre-anti-flexible")
            if not rep.passed:
                raise PreconditionError(
                    "standard_dual_matched: %s factor fails the "
                    "pre-anti-flexible check; witness %r" % (name, rep.witness))
    opsA = multiplication_operators(palgA)
    opsS = multiplication_operators(palgAstar)
    dual = lambda fam: tuple(transpose(m) for m in fam)
    return AfMatchedPair(
        underlying_algebra(palgA), underlying_algebra(palgAstar),
        dual(opsA["R_prec"]), dual(opsA["L_succ"]),
        dual(opsS["R_prec"]), dual(opsS["L_succ"]))


def dual_pre_matched(palgA: PreAlgebra, palgAstar: PreAlgebra,
                     check_inputs=True) -> PreMatchedPair:
    """The eight-map dual-action candidate pair on a pre-algebra and a
    companion structure on its dual: on each side the succ actions are
    (R*_dot, -L*_prec) and the prec actions are (-R*_succ, L*_dot) — the
    four families of the dualized full bimodule, arranged so that the
    underlying algebra of this pair's pre double is the standard dual
    pair's double."""
    if palgA.dimension != palgAstar.dimension:
        raise PreconditionError("dual_pre_matched: dimension mismatch")
    if check_inputs:
        for name, p in (("first", palgA), ("second", palgAstar)):
            rep = check_identities(p, "pre-anti-flexible")
            if not rep.passed:
                raise PreconditionError(
                    "dual_pre_matched: %s factor fails the "
                    "pre-anti-flexible check; witness %r" % (name, rep.witness))
    opsA = multiplication_operators(palgA)
    opsS = multiplication_operators(palgAstar)
    dual = lambda fam: tuple(transpose(m) for m in fam)
    negdual = lambda fam: tuple([[-v for v in row] for row in transpose(m)]
                                for m in fam)
    return PreMatchedPair(
        palgA, palgAstar,
        dual(opsA["R_dot"]), negdual(opsA["L_prec"]),
        negdual(opsA["R_succ"]), dual(opsA["L_dot"]),
        dual(opsS["R_dot"]), negdual(opsS["L_prec"]),
        negdual(opsS["R_succ"]), dual(opsS["L_dot"]))


def omega_matrix(n):
    """Gram matrix of w(x+a, y+b) = <x,b> - <y,a> on A + A*, A block first."""
    m = zeros_mat(2 * n)
    for i in range(n):
        m[i][n + i] = ONE
        m[n + i][i] = -ONE
    return m


def omega_double_check(d: Algebra, all_failures=False) -> CheckReport:
    """Closedness w(uv,w) + w(vw,u) + w(wu,v) = 0 of the canonical skew form
    on a double algebra with the A-then-dual block convention."""
    if d.dimension % 2 != 0:
        raise PreconditionError("omega_double_check: odd dimension")
    n = d.dimension // 2

    # w(u, v) = <u, Jv> with Jv = (dual part of v, -(A part of v)), so the
    # cyclic sum is one dot product of concatenated vectors
    basis = [basis_vec(2 * n, i) for i in range(2 * n)]
    paired = [v[n:] + vec_neg(v[:n]) for v in basis]
    failures = []
    for i in range(2 * n):
        for j in range(2 * n):
            for k in range(2 * n):
                x, y, z = basis[i], basis[j], basis[k]
                res = dot(d.mul(x, y) + d.mul(y, z) + d.mul(z, x),
                          paired[k] + paired[i] + paired[j])
                if res != 0:
                    failures.append(("cyclic-form", (i, j, k), [res]))
                    if not all_failures:
                        return _report("omega-double", failures)
    return _report("omega-double", failures, all_failures)
