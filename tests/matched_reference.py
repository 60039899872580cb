"""The matched-pair compatibility conditions written out term for term, one
residual per numbered condition: the reference that the table-driven
checkers of antiflex.matched are tested against.

Also the condition rows read at every basis tuple through the per-triple
evaluator of identity_reference (conditions here), the dense reader that
antiflex.matched._conditions replaced, with the rows as they were written
for it."""

from antiflex.algebra import basis_residuals, scan
from antiflex.bimodule import AfBimodule, PreBimodule, act, \
    check_af_bimodule, check_pre_bimodule
from antiflex.linalg import mat_add, mat_vec, vec_add, vec_sub
from antiflex.matched import AfMatchedPair, PreMatchedPair, \
    build_af_double, build_pre_double, condition_residuals

from helpers import basis_vec, vec_neg


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


def reference_residuals(mp):
    """(label, index tuple, residual) at every basis tuple, in the order of
    the checkers' scan: for each i, the A-valued conditions over (i, j, s),
    then the B-valued ones over (i, s, t)."""
    if isinstance(mp, AfMatchedPair):
        nA, nB = mp.algA.dimension, mp.algB.dimension
        on_A, on_B = af_matched_residuals_A, af_matched_residuals_B
    else:
        nA, nB = mp.palgA.dimension, mp.palgB.dimension
        on_A, on_B = pre_matched_residuals_A, pre_matched_residuals_B
    out = []
    for i in range(nA):
        for j in range(nA):
            for s in range(nB):
                out.extend(on_A(mp, i, j, s))
        for s in range(nB):
            for t in range(nB):
                out.extend(on_B(mp, i, s, t))
    return out


def separate_path_check(mp, all_failures=False):
    """The matched check the way it reads when each component bimodule is
    checked on its own semidirect product before the condition scan: the
    reference for the preconditions that check_af_matched and
    check_pre_matched read as blocks of the double.  Returns the report, or
    the text of the PreconditionError it raises."""
    if isinstance(mp, AfMatchedPair):
        caller, name, check = "check_af_matched", "af-matched", \
            check_af_bimodule
        components = (AfBimodule(mp.algA, mp.algB.dimension, mp.lA, mp.rA),
                      AfBimodule(mp.algB, mp.algA.dimension, mp.lB, mp.rB))
    else:
        caller, name, check = "check_pre_matched", "pre-matched", \
            check_pre_bimodule
        components = (PreBimodule(mp.palgA, mp.palgB.dimension, mp.ls_A,
                                  mp.rs_A, mp.lp_A, mp.rp_A),
                      PreBimodule(mp.palgB, mp.palgA.dimension, mp.ls_B,
                                  mp.rs_B, mp.lp_B, mp.rp_B))
    for side, bm in zip(("A-on-B", "B-on-A"), components):
        rep = check(bm)
        if not rep.passed:
            return "%s: component bimodule %s fails; witness %r" \
                % (caller, side, rep.witness)
    return scan(name, condition_residuals(mp, double_residuals(mp)),
                all_failures)


def double_residuals(mp):
    """The basis_residuals of the double of a matched pair of either
    kind."""
    return basis_residuals(build_af_double(mp) if isinstance(
        mp, AfMatchedPair) else build_pre_double(mp))


# the condition rows of antiflex.matched by their arguments alone: (label,
# kept block, identity of the double, its arguments, sign)
AF_CONDITIONS = (
    ("af-matched-1", "A", "anti-flexible", "yxa", 1),
    ("af-matched-3", "A", "anti-flexible", "xay", 1),
    ("af-matched-2", "B", "anti-flexible", "xab", -1),
    ("af-matched-4", "B", "anti-flexible", "axb", 1),
)

PRE_CONDITIONS = (
    ("pre-matched-1", "A", "pre-anti-flexible-m", "yxa", -1),
    ("pre-matched-3", "A", "pre-anti-flexible-lr", "axy", 1),
    ("pre-matched-4", "A", "pre-anti-flexible-lr", "xya", 1),
    ("pre-matched-7", "A", "pre-anti-flexible-m", "xay", 1),
    ("pre-matched-9", "A", "pre-anti-flexible-lr", "xay", 1),
    ("pre-matched-2", "B", "pre-anti-flexible-m", "xba", 1),
    ("pre-matched-5", "B", "pre-anti-flexible-lr", "xba", 1),
    ("pre-matched-6", "B", "pre-anti-flexible-lr", "abx", 1),
    ("pre-matched-8", "B", "pre-anti-flexible-m", "axb", 1),
    ("pre-matched-10", "B", "pre-anti-flexible-lr", "axb", 1),
)


def conditions(mp, evaluate):
    """(label, index tuple, residual) of every compatibility condition at
    every basis tuple, in checking order, given the per-triple evaluator of
    the double: for each i, the A rows over (i, j, s), then the B rows over
    (i, s, t)."""
    if isinstance(mp, AfMatchedPair):
        nA, nB, rows = mp.algA.dimension, mp.algB.dimension, AF_CONDITIONS
    else:
        nA, nB, rows = mp.palgA.dimension, mp.palgB.dimension, PRE_CONDITIONS
    # each argument letter: (its position in the index tuple, its offset)
    slots = {"A": {"x": (0, 0), "y": (1, 0), "a": (2, nA)},
             "B": {"x": (0, 0), "a": (1, nA), "b": (2, nA)}}
    blocks = {"A": slice(0, nA), "B": slice(nA, None)}
    compiled = {side: [(label, identity, [slots[side][c] for c in args],
                        blocks[side], sign)
                       for label, block, identity, args, sign in rows
                       if block == side]
                for side in ("A", "B")}
    for i in range(nA):
        for side, second in (("A", nA), ("B", nB)):
            for u in range(second):
                for v in range(nB):
                    idx = (i, u, v)
                    for label, identity, args, block, sign in compiled[side]:
                        res = evaluate(identity, tuple(idx[p] + off
                                                       for p, off in args))
                        yield label, idx, res[block] if sign > 0 \
                            else vec_neg(res[block])
