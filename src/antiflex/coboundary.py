"""Coboundary comultiplications built from a pair of r-elements.

An r-element is an element of A (x) A stored as a coefficient matrix.  The
rank-3 calculus places an r-element at two of three tensor slots; a product
of two placed elements sharing exactly one slot multiplies the components
meeting at the shared slot (first factor's component on the left) and keeps
the free components at their slots.  All the cubic expressions appearing in
the dual-structure conditions are finite signed sums of such placed
products, encoded here as symbolic term lists so that the flip of product
decorations (flp) and the outer slot swap (sigma13) act on expressions
before evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import PreAlgebra, CheckReport, PreconditionError, \
    check_identities, require_square, scan
from .bialgebra import Bialgebra
from .bimodule import multiplication_operators, act
from .linalg import (
    ZERO, eye, transpose, mat_add, mat_sub, mat_neg, mat_mul, apply2,
    apply_slot3, t3_add, t3_sub,
)


@dataclass(frozen=True)
class RPair:
    """A pair (r_prec, r_succ) of elements of A (x) A as coefficient
    matrices."""
    r_prec: tuple
    r_succ: tuple

    def __post_init__(self):
        n = len(self.r_prec)
        for name in ("r_prec", "r_succ"):
            m = getattr(self, name)
            if len(m) != n or any(len(row) != n for row in m):
                raise PreconditionError("RPair: components must be square "
                                        "matrices of equal extent")
            object.__setattr__(self, name, tuple(tuple(row) for row in m))

    @property
    def dimension(self):
        return len(self.r_prec)


def r_is_symmetric(r) -> bool:
    """Whether the r-element is fixed by the tensor flip."""
    return list(map(list, r)) == transpose(r)


# ---------------------------------------------------------------------------
# placed products
# ---------------------------------------------------------------------------

def placed_product(m1, pos1, m2, pos2, rows, out, sign=1):
    """Add sign times the product of two placed r-elements to out.

    m1 sits at slots pos1 = (p1, q1) (first component at p1, second at q1)
    and m2 at pos2; the placements must share exactly one slot.  At the
    shared slot the two meeting components are multiplied by a structure
    tensor given as sparse rows (see structure_tensors), m1's component on
    the left; the free components stay put.  out is a rank-3 tensor stored
    flat, entry [s1][s2][s3] at (s1 * n + s2) * n + s3.  Only the nonzero
    entries of the factors and of the structure rows are visited.
    """
    shared = set(pos1) & set(pos2)
    if len(shared) != 1 or set(pos1) | set(pos2) != {1, 2, 3}:
        raise PreconditionError("placed_product: placements must cover the "
                                "three slots and share exactly one")
    s = shared.pop()
    n = len(m1)
    stride = (n * n, n, 1)
    step = stride[s - 1]
    f2 = _placed_nonzeros(m2, pos2, s, stride)
    for a, off1, x1 in _placed_nonzeros(m1, pos1, s, stride):
        row_a = rows[a]
        if sign < 0:
            x1 = -x1
        for b, off2, x2 in f2:
            entries = row_a[b]
            if not entries:
                continue
            coeff = x1 * x2
            base = off1 + off2
            for k, ck in entries:
                out[base + k * step] += coeff * ck


def _placed_nonzeros(m, pos, s, stride):
    """The nonzero entries of an r-element placed at pos, as triples
    (component at the shared slot s, flat offset of the free component,
    coefficient)."""
    p, q = pos
    out = []
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            if x != 0:
                if p == s:
                    out.append((i, j * stride[q - 1], x))
                else:
                    out.append((j, i * stride[p - 1], x))
    return out


def _zeros_flat(n):
    return [ZERO] * (n * n * n)


def _unflatten(flat, n):
    return [[flat[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)]
            for i in range(n)]


def structure_tensors(palg: PreAlgebra):
    """The three products of a pre-algebra (prec, succ and dot = prec +
    succ) as sparse rows: rows[a][b] lists the pairs (k, c[a][b][k]) with a
    nonzero coefficient.  Built once per check or search and handed to
    evaluate_expression and placed_product."""
    return {op: [[[(k, x) for k, x in enumerate(row) if x != 0]
                  for row in plane] for plane in c]
            for op, c in (("prec", palg.prec), ("succ", palg.succ),
                          ("dot", t3_add(palg.prec, palg.succ)))}


def pairwise_tensor_product(palg: PreAlgebra, a, b, slots, op):
    """Public entry for a single placed product; slots is a string like
    '23.12' (any non-digit separator) giving the two placements."""
    digits = [int(ch) for ch in str(slots) if ch.isdigit()]
    if len(digits) != 4 or not all(1 <= d <= 3 for d in digits):
        raise PreconditionError("pairwise_tensor_product: unknown slot "
                                "pattern %r" % (slots,))
    if op not in ("prec", "succ", "dot"):
        raise PreconditionError("pairwise_tensor_product: unknown op %r"
                                % (op,))
    n = palg.dimension
    out = _zeros_flat(n)
    placed_product(a, (digits[0], digits[1]), b, (digits[2], digits[3]),
                   structure_tensors(palg)[op], out)
    return _unflatten(out, n)


# ---------------------------------------------------------------------------
# symbolic expressions: signed sums of placed products
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


def evaluate_expression(c, terms, mats):
    """Evaluate a term list on the structure tensors c of a pre-algebra
    (see structure_tensors); mats maps factor tags to coefficient matrices.
    Every signed term is added into one output tensor."""
    n = len(c["prec"])
    out = _zeros_flat(n)
    for sign, (t1, p1, q1), op, (t2, p2, q2) in terms:
        placed_product(mats[t1], (p1, q1), mats[t2], (p2, q2), c[op], out,
                       sign)
    return _unflatten(out, n)


def _rpair_mats(rp: RPair):
    return {"prec": rp.r_prec, "succ": rp.r_succ,
            "sum": mat_add(rp.r_prec, rp.r_succ)}


# The cubic expressions of the dual-structure conditions, as printed
# (factors are (tag, first slot, second slot)).
_EXPRESSIONS = {
    "M": ((1, ("prec", 2, 3), "dot", ("succ", 1, 2)),
          (1, ("prec", 2, 1), "prec", ("prec", 1, 3)),
          (-1, ("succ", 1, 3), "succ", ("prec", 2, 3))),
    "N": ((1, ("succ", 3, 2), "dot", ("prec", 2, 1)),
          (1, ("prec", 3, 1), "succ", ("prec", 2, 3)),
          (-1, ("prec", 2, 1), "prec", ("succ", 3, 1))),
    "P": ((1, ("succ", 1, 2), "dot", ("prec", 2, 3)),
          (1, ("prec", 1, 3), "succ", ("prec", 2, 1)),
          (-1, ("prec", 2, 3), "prec", ("succ", 1, 3))),
    "Q": ((1, ("prec", 2, 1), "dot", ("succ", 3, 2)),
          (1, ("prec", 2, 3), "prec", ("prec", 3, 1)),
          (-1, ("succ", 3, 1), "succ", ("prec", 2, 1))),
    "M'": ((1, ("succ", 2, 3), "prec", ("succ", 1, 2)),
           (1, ("succ", 2, 1), "succ", ("succ", 1, 3)),
           (-1, ("succ", 1, 3), "dot", ("succ", 2, 3)),
           (1, ("succ", 2, 3), "succ", ("sum", 1, 2)),
           (1, ("sum", 2, 1), "prec", ("succ", 1, 3))),
    "N'": ((1, ("succ", 1, 2), "succ", ("succ", 2, 3)),
           (1, ("succ", 1, 3), "prec", ("succ", 2, 1)),
           (-1, ("succ", 2, 3), "dot", ("succ", 1, 3)),
           (1, ("sum", 1, 2), "prec", ("succ", 2, 3)),
           (1, ("succ", 1, 3), "succ", ("sum", 2, 1))),
    "P'": ((1, ("prec", 3, 2), "prec", ("prec", 2, 1)),
           (1, ("prec", 3, 1), "dot", ("succ", 2, 3)),
           (-1, ("succ", 2, 1), "succ", ("prec", 3, 1)),
           (-1, ("sum", 2, 1), "prec", ("prec", 3, 1))),
    "Q'": ((1, ("prec", 2, 1), "succ", ("prec", 3, 2)),
           (1, ("succ", 2, 3), "dot", ("prec", 3, 1)),
           (-1, ("prec", 3, 1), "prec", ("succ", 2, 1)),
           (-1, ("prec", 3, 1), "succ", ("sum", 2, 1))),
}


def mnpq(palg: PreAlgebra, rp: RPair, which):
    """One of the eight cubic tensors of the dual-structure conditions,
    evaluated from its printed definition."""
    key = str(which).replace("′", "'")
    if key not in _EXPRESSIONS:
        raise PreconditionError("mnpq: unknown expression %r" % (which,))
    if rp.dimension != palg.dimension:
        raise PreconditionError("mnpq: dimension mismatch")
    return evaluate_expression(structure_tensors(palg), _EXPRESSIONS[key],
                               _rpair_mats(rp))


def _apply_middle(m, pos, slot, op):
    """Apply an operator to the component of a placed r-element sitting at
    the given slot."""
    if slot == pos[0]:
        return mat_mul(op, list(map(list, m)))
    if slot == pos[1]:
        return mat_mul(list(map(list, m)), transpose(op))
    raise PreconditionError("operator slot not occupied by the placement")


def _rprime(c, ops, rp, x):
    succ = c["succ"]
    s12 = mat_add(rp.r_prec, rp.r_succ)
    op1 = mat_add(ops["R_prec"][x], ops["L_succ"][x])
    op2 = mat_add(ops["L_prec"][x], ops["R_succ"][x])
    n = len(s12)
    out = _zeros_flat(n)
    placed_product(_apply_middle(rp.r_prec, (3, 2), 2, op1), (3, 2),
                   s12, (1, 2), succ, out)
    placed_product(_apply_middle(rp.r_prec, (3, 1), 1, op2), (3, 1),
                   s12, (2, 1), succ, out, -1)
    return _unflatten(out, n)


# ---------------------------------------------------------------------------
# the coboundary comultiplications
# ---------------------------------------------------------------------------

def coboundary_delta(palg: PreAlgebra, rp: RPair):
    """The comultiplication tensors induced by an r-pair:

      D_succ(x) = (id (x) L_dot(x)) r_succ + (R_prec(x) (x) id) sigma r_prec
      D_prec(x) = (id (x) L_succ(x)) r_prec + (R_dot(x) (x) id) sigma r_succ

    returned as (delta_prec, delta_succ) in comultiplication-tensor form.
    """
    if rp.dimension != palg.dimension:
        raise PreconditionError("coboundary_delta: dimension mismatch")
    ops = multiplication_operators(palg)
    n = palg.dimension
    ident = eye(n)
    sp = transpose(rp.r_prec)
    ss = transpose(rp.r_succ)
    dsucc = [mat_add(apply2(ident, ops["L_dot"][i], rp.r_succ),
                     apply2(ops["R_prec"][i], ident, sp)) for i in range(n)]
    dprec = [mat_add(apply2(ident, ops["L_succ"][i], rp.r_prec),
                     apply2(ops["R_dot"][i], ident, ss)) for i in range(n)]
    return dprec, dsucc


def coboundary_bialgebra(palg: PreAlgebra, rp: RPair) -> Bialgebra:
    """The candidate bialgebra whose comultiplications are the coboundaries
    of the r-pair."""
    dprec, dsucc = coboundary_delta(palg, rp)
    return Bialgebra(palg, dprec, dsucc)


# ---------------------------------------------------------------------------
# the six coboundary condition families
# ---------------------------------------------------------------------------

def _quadratic_residuals(palg, ops, rp, i, j):
    """The four quadratic conditions on (e_i, e_j), as matrix residuals."""
    ident = eye(palg.dimension)
    Lp, Rp = ops["L_prec"], ops["R_prec"]
    Ls, Rs = ops["L_succ"], ops["R_succ"]
    Ld, Rd = ops["L_dot"], ops["R_dot"]
    sp = transpose(rp.r_prec)
    ss = transpose(rp.r_succ)
    s_sp = mat_add(list(map(list, rp.r_succ)), sp)       # r_succ + sigma r_prec
    p_ss = mat_add(list(map(list, rp.r_prec)), ss)       # r_prec + sigma r_succ
    both = mat_add(list(map(list, rp.r_succ)), list(map(list, rp.r_prec)))
    sboth = mat_add(sp, ss)
    prec_ij = palg.prec[i][j]
    prec_ji = palg.prec[j][i]
    succ_ij = palg.succ[i][j]
    succ_ji = palg.succ[j][i]
    res1 = mat_add(apply2(Rp[j], Ld[i], s_sp), apply2(Ls[j], Rd[i], s_sp))
    res2 = mat_add(apply2(Ls[i], Ld[j], s_sp),
                   mat_neg(apply2(Rp[j], Rd[i], s_sp)),
                   mat_neg(apply2(Ls[j], Ld[i], s_sp)),
                   apply2(Rp[i], Rd[j], s_sp))
    res3 = mat_add(
        apply2(Rs[j], Ls[i], p_ss), apply2(Lp[j], Rp[i], p_ss),
        apply2(Rp[j], Ls[i], sboth), apply2(Ls[j], Rp[i], sboth),
        apply2(ident, mat_add(act(Ls, prec_ij), act(Rp, succ_ji)), both),
        mat_neg(apply2(mat_add(act(Ls, prec_ji), act(Rp, succ_ij)), ident,
                       sboth)))
    res4 = mat_add(
        apply2(Rp[i], Rp[j], both), apply2(Ls[i], Ls[j], both),
        mat_neg(apply2(ident, mat_add(mat_mul(Ls[i], Rp[j]),
                                      mat_mul(Rp[i], Ls[j])), both)),
        apply2(mat_add(mat_mul(Rp[i], Ls[j]), mat_mul(Ls[i], Rp[j])), ident,
               sboth),
        mat_neg(apply2(Ls[j], Ls[i], sboth)),
        mat_neg(apply2(Rp[j], Rp[i], sboth)),
        apply2(Rp[i], Rs[j], s_sp), apply2(Ls[i], Lp[j], s_sp),
        mat_neg(apply2(Lp[j], Ls[i], p_ss)),
        mat_neg(apply2(Rs[j], Rp[i], p_ss)))
    return (("coboundary-1", res1), ("coboundary-2", res2),
            ("coboundary-3", res3), ("coboundary-4", res4))


def _first_kind_tensors(c, expr, mats):
    """M, flp M, sigma13 flp M and flp sigma13 flp M of a cubic expression;
    none of them depends on the basis element, so they are evaluated once
    per check."""
    flp = flp_expression(expr)
    swapped = sigma13_expression(flp)
    return tuple(evaluate_expression(c, e, mats)
                 for e in (expr, flp, swapped, flp_expression(swapped)))


def _cubic_first_kind(ops, tensors, i):
    """((id(x)id(x)L_succ(x)) - (R_prec(x)(x)id(x)id) sigma13.flp
    + (id(x)id(x)R_prec(x)) flp - (L_succ(x)(x)id(x)id) flp.sigma13.flp)
    applied to an expression, given its _first_kind_tensors."""
    mv, pv, nv, qv = tensors
    return t3_sub(t3_add(apply_slot3(mv, 3, ops["L_succ"][i]),
                         apply_slot3(pv, 3, ops["R_prec"][i])),
                  t3_add(apply_slot3(nv, 1, ops["R_prec"][i]),
                         apply_slot3(qv, 1, ops["L_succ"][i])))


def _second_kind_tensors(c, m_expr, p_expr, mats):
    """M, flp M, P and flp P, evaluated once per check."""
    return tuple(evaluate_expression(c, e, mats)
                 for e in (m_expr, flp_expression(m_expr),
                           p_expr, flp_expression(p_expr)))


def _cubic_second_kind(ops, tensors, i, rterm=None):
    """((id(x)id(x)L_dot(x)) + (id(x)id(x)R_dot(x)) flp) M + R
    - ((R_prec(x)(x)id(x)id) + (L_succ(x)(x)id(x)id) flp) P, given the
    _second_kind_tensors of M and P."""
    mv, nv, pv, qv = tensors
    pos = t3_add(apply_slot3(mv, 3, ops["L_dot"][i]),
                 apply_slot3(nv, 3, ops["R_dot"][i]))
    if rterm is not None:
        pos = t3_add(pos, rterm)
    return t3_sub(pos, t3_add(apply_slot3(pv, 1, ops["R_prec"][i]),
                              apply_slot3(qv, 1, ops["L_succ"][i])))


def check_coboundary_conditions(palg: PreAlgebra, rp: RPair,
                                all_failures=False) -> CheckReport:
    """The six condition families whose joint validity is equivalent to the
    coboundary comultiplications making (A, A*) a bialgebra: four quadratic
    conditions over basis pairs, and two cubic dual-structure conditions
    over basis elements (the companion tensors of M and M', P' come from
    the decoration flip and the outer slot swap)."""
    base = check_identities(palg, "pre-anti-flexible")
    if not base.passed:
        raise PreconditionError("check_coboundary_conditions: base fails the "
                                "pre-anti-flexible check; witness %r"
                                % (base.witness,))
    if rp.dimension != palg.dimension:
        raise PreconditionError("check_coboundary_conditions: dimension "
                                "mismatch")
    ops = multiplication_operators(palg)
    n = palg.dimension

    def residuals():
        for i, j in product(range(n), repeat=2):
            for label, res in _quadratic_residuals(palg, ops, rp, i, j):
                yield label, (i, j), res
        c = structure_tensors(palg)
        mats = _rpair_mats(rp)
        first = _first_kind_tensors(c, _EXPRESSIONS["M"], mats)
        second = _second_kind_tensors(c, _EXPRESSIONS["M'"],
                                      _EXPRESSIONS["P'"], mats)
        for i in range(n):
            yield "dual-structure-1", (i,), _cubic_first_kind(ops, first, i)
            yield "dual-structure-2", (i,), _cubic_second_kind(
                ops, second, i, _rprime(c, ops, rp, i))
    return scan("coboundary-conditions", residuals(), all_failures)


# ---------------------------------------------------------------------------
# the Yang-Baxter-type equation
# ---------------------------------------------------------------------------

_PAFYBE = ((1, ("r", 2, 3), "dot", ("r", 1, 2)),
           (-1, ("r", 1, 2), "prec", ("r", 1, 3)),
           (-1, ("r", 1, 3), "succ", ("r", 2, 3)))


def check_pafybe(palg: PreAlgebra, r, all_failures=False) -> CheckReport:
    """The quadratic equation r_23 . r_12 = r_12 prec r_13 + r_13 succ r_23
    for a single r-element; symmetry of r is not required (use
    r_is_symmetric to report it separately)."""
    require_square("check_pafybe", "r", r, palg.dimension)
    return pafybe_core(structure_tensors(palg), r, all_failures)


def pafybe_core(c, r, all_failures=False) -> CheckReport:
    """check_pafybe on the structure tensors of the pre-algebra, built once
    by the caller; the dimension of r is not checked."""
    return scan("pafybe", [("pafybe", (), evaluate_expression(
        c, _PAFYBE, {"r": r}))], all_failures)


# ---------------------------------------------------------------------------
# the two one-parameter special cases
# ---------------------------------------------------------------------------

SPECIAL_CASES = ("one", "two")


def special_case_rpair(r, case) -> RPair:
    """Case one: r_prec = r, r_succ = -sigma r.  Case two: r_succ = r,
    r_prec = -r."""
    if case == "one":
        return RPair(r, mat_neg(transpose(r)))
    if case == "two":
        return RPair(mat_neg(list(map(list, r))), r)
    raise PreconditionError("special_case_rpair: unknown case %r" % (case,))


def special_case_bialgebra(palg: PreAlgebra, r, case) -> Bialgebra:
    """The candidate bialgebra of a one-parameter r-element under the given
    specialization."""
    base = check_identities(palg, "pre-anti-flexible")
    if not base.passed:
        raise PreconditionError("special_case_bialgebra: base fails the "
                                "pre-anti-flexible check; witness %r"
                                % (base.witness,))
    return coboundary_bialgebra(palg, special_case_rpair(r, case))


_CASE1_M = ((-1, ("r", 2, 3), "dot", ("r", 2, 1)),
            (1, ("r", 2, 1), "prec", ("r", 1, 3)),
            (1, ("r", 3, 1), "succ", ("r", 2, 3)))
_CASE1_MP = ((1, ("r", 3, 2), "prec", ("r", 2, 1)),
             (1, ("r", 1, 2), "succ", ("r", 3, 1)),
             (-1, ("r", 3, 1), "dot", ("r", 3, 2)),
             (-1, ("r", 3, 2), "succ", ("r", 1, 2)),
             (1, ("r", 3, 2), "succ", ("r", 2, 1)),
             (-1, ("r", 2, 1), "prec", ("r", 3, 1)),
             (1, ("r", 1, 2), "prec", ("r", 3, 1)))
_CASE1_PP = ((1, ("r", 3, 2), "prec", ("r", 2, 1)),
             (-1, ("r", 3, 1), "dot", ("r", 3, 2)),
             (1, ("r", 1, 2), "succ", ("r", 3, 1)),
             (-1, ("r", 2, 1), "prec", ("r", 3, 1)),
             (1, ("r", 1, 2), "prec", ("r", 3, 1)))
_CASE2_M = ((-1, ("r", 2, 3), "dot", ("r", 1, 2)),
            (1, ("r", 2, 1), "prec", ("r", 1, 3)),
            (1, ("r", 1, 3), "succ", ("r", 2, 3)))
_CASE2_MP = ((-1, ("r", 1, 3), "dot", ("r", 2, 3)),
             (1, ("r", 2, 3), "prec", ("r", 1, 2)),
             (1, ("r", 2, 1), "succ", ("r", 1, 3)))
_CASE2_PP = ((-1, ("r", 3, 1), "dot", ("r", 2, 3)),
             (1, ("r", 3, 2), "prec", ("r", 2, 1)),
             (1, ("r", 2, 1), "succ", ("r", 3, 1)))


def special_case_conditions(palg: PreAlgebra, r, case,
                            all_failures=False) -> CheckReport:
    """The per-case condition sets, each equation reported individually;
    their joint validity is equivalent to the specialized candidate passing
    the full bialgebra verification."""
    base = check_identities(palg, "pre-anti-flexible")
    if not base.passed:
        raise PreconditionError("special_case_conditions: base fails the "
                                "pre-anti-flexible check; witness %r"
                                % (base.witness,))
    if case not in SPECIAL_CASES:
        raise PreconditionError("special_case_conditions: unknown case %r"
                                % (case,))
    ops = multiplication_operators(palg)
    n = palg.dimension
    ident = eye(n)
    Lp, Rp = ops["L_prec"], ops["R_prec"]
    Ls, Rs = ops["L_succ"], ops["R_succ"]
    Ld, Rd = ops["L_dot"], ops["R_dot"]
    d = mat_sub(list(map(list, r)), transpose(r))       # r - sigma r
    mats = {"r": r}

    def case_one():
        for i, j in product(range(n), repeat=2):
            op_in = mat_add(act(Ls, palg.prec[i][j]),
                            act(Rp, palg.succ[j][i]))
            op_out = mat_add(act(Ls, palg.prec[j][i]),
                             act(Rp, palg.succ[i][j]))
            yield "case-one-A", (i, j), mat_add(
                apply2(ident, op_in, d), apply2(op_out, ident, d),
                mat_neg(apply2(Rp[j], Ls[i], d)),
                mat_neg(apply2(Ls[j], Rp[i], d)))
            yield "case-one-B", (i, j), mat_add(
                apply2(Rp[i], Rp[j], d), apply2(Ls[i], Ls[j], d),
                apply2(Ls[j], Ls[i], d), apply2(Rp[j], Rp[i], d),
                mat_neg(apply2(mat_add(mat_mul(Rp[i], Ls[j]),
                                       mat_mul(Ls[i], Rp[j])), ident, d)),
                mat_neg(apply2(ident,
                               mat_add(mat_mul(Ls[i], Rp[j]),
                                       mat_mul(Rp[i], Ls[j])), d)))
        c = structure_tensors(palg)
        first = _first_kind_tensors(c, _CASE1_M, mats)
        second = _second_kind_tensors(c, _CASE1_MP, _CASE1_PP, mats)
        rp = special_case_rpair(r, "one")
        for i in range(n):
            yield "case-one-C", (i,), _cubic_first_kind(ops, first, i)
            yield "case-one-D", (i,), _cubic_second_kind(
                ops, second, i, _rprime(c, ops, rp, i))

    def case_two():
        for i, j in product(range(n), repeat=2):
            yield "case-two-A", (i, j), mat_add(apply2(Rp[j], Ld[i], d),
                                                apply2(Ls[j], Rd[i], d))
            yield "case-two-B", (i, j), mat_add(
                apply2(Ls[i], Ld[j], d), mat_neg(apply2(Rp[j], Rd[i], d)),
                mat_neg(apply2(Ls[j], Ld[i], d)), apply2(Rp[i], Rd[j], d))
            yield "case-two-C", (i, j), mat_add(apply2(Rs[j], Ls[i], d),
                                                apply2(Lp[j], Rp[i], d))
            yield "case-two-D", (i, j), mat_add(
                apply2(Rp[i], Rs[j], d), apply2(Ls[i], Lp[j], d),
                apply2(Lp[j], Ls[i], d), apply2(Rs[j], Rp[i], d))
        c = structure_tensors(palg)
        first = _first_kind_tensors(c, _CASE2_M, mats)
        second = _second_kind_tensors(c, _CASE2_MP, _CASE2_PP, mats)
        for i in range(n):
            yield "case-two-E", (i,), _cubic_first_kind(ops, first, i)
            yield "case-two-F", (i,), _cubic_second_kind(ops, second, i)

    if case == "one":
        return scan("special-case-one", case_one(), all_failures)
    return scan("special-case-two", case_two(), all_failures)
