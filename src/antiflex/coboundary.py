"""Coboundary comultiplications built from a pair of r-elements.

An r-element is an element of A (x) A stored as a coefficient matrix.  The
rank-3 calculus places an r-element at two of three tensor slots; a product
of two placed elements sharing exactly one slot multiplies the components
meeting at the shared slot (first factor's component on the left) and keeps
the free components at their slots.  All the cubic expressions appearing in
the dual-structure conditions are finite signed sums of such placed
products, encoded here as symbolic term lists.

Every term is bilinear in its two factors and linear in the structure
constants, so an expression is evaluated in ints: the structure constants
are scaled once by their lcd D_c (structure_tensors), the factor matrices
by their lcd D_m, and the int sum is divided back once, as
Fraction(v, D_c * D_m**2).  Scalars in and out are Fractions.

The two one-parameter special cases are the coboundary conditions at the
r-pairs (r, -sigma r) and (-r, r), relabelled by SPECIAL_CASE_LABELS.  In
case one coboundary-1 and coboundary-2 vanish identically, and the others
are case-one-A to D; in case two the six families are case-two-A to F,
with case-two-C the negated coboundary-3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .algebra import PreAlgebra, CheckReport, PreconditionError, \
    _lcd, _scaled, check_identities, require_pass, require_square, scan, \
    structure_tensors
from .bialgebra import Bialgebra
from .bimodule import multiplication_operators, act
from .linalg import (
    ZERO, eye, transpose, mat_add, mat_neg, mat_mul, mat_is_zero, apply2,
    apply_slot3, t3_add, t3_sub, zeros_mat,
)


@dataclass(frozen=True)
class RPair:
    """A pair (r_prec, r_succ) of elements of A (x) A as coefficient
    matrices."""
    r_prec: tuple
    r_succ: tuple

    def __post_init__(self):
        for name in ("r_prec", "r_succ"):
            m = getattr(self, name)
            require_square("RPair", name, m, len(self.r_prec))
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

def placed_product(f1, f2, step, rows, out, sign=1):
    """Add sign times the product of two placed r-elements to out.

    Each factor is given by its nonzero entries at its placement (see
    _placed_nonzeros); the placements share exactly one slot, whose flat
    stride in out is step.  At the shared slot the two meeting components
    are multiplied by a structure tensor given as sparse rows (see
    structure_tensors), the first factor's component on the left; the free
    components stay put.  out is a rank-3 tensor stored flat, entry
    [s1][s2][s3] at (s1 * n + s2) * n + s3.  Only the nonzero entries of
    the factors and of the structure rows are visited.
    """
    for a, off1, x1 in f1:
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


def _shared_slot(pos1, pos2):
    """The one slot two placements share; they must cover all three."""
    shared = set(pos1) & set(pos2)
    if len(shared) != 1 or set(pos1) | set(pos2) != {1, 2, 3}:
        raise PreconditionError("placed_product: placements must cover the "
                                "three slots and share exactly one")
    return shared.pop()


def _placed_nonzeros(entries, pos, s, stride):
    """The nonzero entries ((i, j), x) of an r-element placed at pos, as
    triples (component at the shared slot s, flat offset of the free
    component, coefficient)."""
    p, q = pos
    if p == s:
        return [(i, j * stride[q - 1], x) for (i, j), x in entries]
    return [(j, i * stride[p - 1], x) for (i, j), x in entries]


# ---------------------------------------------------------------------------
# symbolic expressions: signed sums of placed products
# ---------------------------------------------------------------------------
# A factor is (tag, p, q) with tag naming an r-element; a term is
# (sign, factor, op, factor).

def _numerators(c, terms, mats):
    """A term list on the structure tensors c (see structure_tensors) in
    ints: (the flat tensor of its value times D, D).  Each term is bilinear
    in its two factors, so with every factor matrix scaled by one lcd D_m,
    every signed term adds D = D_c * D_m**2 times its value into one int
    tensor.  Each factor's nonzeros are read once, and placed once per
    placement and shared slot."""
    n = len(c.rows["prec"])
    stride = (n * n, n, 1)
    entries = {tag: [((i, j), x) for i, row in enumerate(m)
                     for j, x in enumerate(row) if x]
               for tag, m in mats.items()}
    d = _lcd(x for e in entries.values() for _, x in e)
    entries = {tag: _scaled(e, d) for tag, e in entries.items()}
    placed = {}     # (factor, shared slot) -> its placed nonzeros
    out = [0] * (n * n * n)
    for sign, f1, op, f2 in terms:
        s = _shared_slot(f1[1:], f2[1:])
        for f in (f1, f2):
            if (f, s) not in placed:
                placed[f, s] = _placed_nonzeros(entries[f[0]], f[1:], s,
                                                stride)
        placed_product(placed[f1, s], placed[f2, s], stride[s - 1],
                       c.rows[op], out, sign)
    return out, c.scale * d * d


def _divided(flat, d, n):
    """The rank-3 tensor flat / d, entry [i][j][k] at (i * n + j) * n + k,
    with the shared ZERO at its zeros."""
    t = [Fraction(v, d) if v else ZERO for v in flat]
    return [[t[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)]
            for i in range(n)]


def evaluate_expression(c, terms, mats):
    """Evaluate a term list on the structure tensors c of a pre-algebra
    (see structure_tensors); mats maps factor tags to coefficient matrices.
    Every signed term is added into one int tensor, which is divided back
    once."""
    return _divided(*_numerators(c, terms, mats), len(c.rows["prec"]))


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


# the r-term of the second cubic condition: each operator acts on the
# second component of r_prec, the one at the slot it shares with
# r_prec + r_succ
_RPRIME = ((1, ("op1", 3, 2), "succ", ("sum", 1, 2)),
           (-1, ("op2", 3, 1), "succ", ("sum", 2, 1)))


def _rprime(c, ops, rp, x):
    """The r-term of the second cubic condition at the basis element x;
    None, a zero term, when r_prec + r_succ is zero."""
    s12 = mat_add(rp.r_prec, rp.r_succ)
    if mat_is_zero(s12):
        return None
    op1 = mat_add(ops["R_prec"][x], ops["L_succ"][x])
    op2 = mat_add(ops["L_prec"][x], ops["R_succ"][x])
    return evaluate_expression(c, _RPRIME, {
        "op1": mat_mul(rp.r_prec, transpose(op1)),
        "op2": mat_mul(rp.r_prec, transpose(op2)), "sum": s12})


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

def _quadratic_residuals(palg, ops, rp):
    """The four quadratic conditions on each basis pair (e_i, e_j), as a
    stream of matrix residuals.  Every term applies an operator pair to one
    of four sums of the r-pair, formed once per check; a sum that is
    exactly zero makes its terms zero, and they are skipped."""
    n = palg.dimension
    ident = eye(n)
    Lp, Rp = ops["L_prec"], ops["R_prec"]
    Ls, Rs = ops["L_succ"], ops["R_succ"]
    Ld, Rd = ops["L_dot"], ops["R_dot"]
    r_prec, r_succ = list(map(list, rp.r_prec)), list(map(list, rp.r_succ))
    sp, ss = transpose(r_prec), transpose(r_succ)
    s_sp, p_ss, both, sboth = (None if mat_is_zero(m) else m for m in (
        mat_add(r_succ, sp),                    # r_succ + sigma r_prec
        mat_add(r_prec, ss),                    # r_prec + sigma r_succ
        mat_add(r_succ, r_prec), mat_add(sp, ss)))

    def total(*groups):
        """The sum of sign (P (x) Q) m over the groups (m, (sign, P, Q)...)."""
        terms = [apply2(p, q, m) if sign > 0 else mat_neg(apply2(p, q, m))
                 for m, *pairs in groups if m is not None
                 for sign, p, q in pairs]
        return mat_add(*terms) if terms else zeros_mat(n)

    for i, j in product(range(n), repeat=2):
        yield "coboundary-1", (i, j), total(
            (s_sp, (1, Rp[j], Ld[i]), (1, Ls[j], Rd[i])))
        yield "coboundary-2", (i, j), total(
            (s_sp, (1, Ls[i], Ld[j]), (-1, Rp[j], Rd[i]),
             (-1, Ls[j], Ld[i]), (1, Rp[i], Rd[j])))
        op_in = None if both is None else mat_add(
            act(Ls, palg.prec[i][j]), act(Rp, palg.succ[j][i]))
        op_out = None if sboth is None else mat_add(
            act(Ls, palg.prec[j][i]), act(Rp, palg.succ[i][j]))
        yield "coboundary-3", (i, j), total(
            (p_ss, (1, Rs[j], Ls[i]), (1, Lp[j], Rp[i])),
            (sboth, (1, Rp[j], Ls[i]), (1, Ls[j], Rp[i]),
             (-1, op_out, ident)),
            (both, (1, ident, op_in)))
        lr = None if both is None and sboth is None else mat_add(
            mat_mul(Ls[i], Rp[j]), mat_mul(Rp[i], Ls[j]))
        yield "coboundary-4", (i, j), total(
            (both, (1, Rp[i], Rp[j]), (1, Ls[i], Ls[j]), (-1, ident, lr)),
            (sboth, (1, lr, ident), (-1, Ls[j], Ls[i]), (-1, Rp[j], Rp[i])),
            (s_sp, (1, Rp[i], Rs[j]), (1, Ls[i], Lp[j])),
            (p_ss, (-1, Lp[j], Ls[i]), (-1, Rs[j], Rp[i])))


def _cubic_first_kind(ops, tensors, i):
    """((id(x)id(x)L_succ(x)) - (R_prec(x)(x)id(x)id) sigma13.flp
    + (id(x)id(x)R_prec(x)) flp - (L_succ(x)(x)id(x)id) flp.sigma13.flp)
    applied to M, given the tensors (M, P, N, Q)."""
    mv, pv, nv, qv = tensors
    return t3_sub(t3_add(apply_slot3(mv, 3, ops["L_succ"][i]),
                         apply_slot3(pv, 3, ops["R_prec"][i])),
                  t3_add(apply_slot3(nv, 1, ops["R_prec"][i]),
                         apply_slot3(qv, 1, ops["L_succ"][i])))


def _cubic_second_kind(ops, tensors, i, rterm=None):
    """((id(x)id(x)L_dot(x)) + (id(x)id(x)R_dot(x)) flp) M + R
    - ((R_prec(x)(x)id(x)id) + (L_succ(x)(x)id(x)id) flp) P, given the
    tensors (M, flp M, P, flp P)."""
    mv, nv, pv, qv = tensors
    pos = t3_add(apply_slot3(mv, 3, ops["L_dot"][i]),
                 apply_slot3(nv, 3, ops["R_dot"][i]))
    if rterm is not None:
        pos = t3_add(pos, rterm)
    return t3_sub(pos, t3_add(apply_slot3(pv, 1, ops["R_prec"][i]),
                              apply_slot3(qv, 1, ops["L_succ"][i])))


def _require_base(caller, palg):
    require_pass(check_identities(palg, "pre-anti-flexible"),
                 "%s: base fails the pre-anti-flexible check" % caller)


def check_coboundary_conditions(palg: PreAlgebra, rp: RPair,
                                all_failures=False) -> CheckReport:
    """The six condition families whose joint validity is equivalent to the
    coboundary comultiplications making (A, A*) a bialgebra: four quadratic
    conditions over basis pairs, and two cubic dual-structure conditions
    over basis elements (P, N, Q are the images of M, and N', Q' of M'
    and P', under the decoration flip and the outer slot swap)."""
    _require_base("check_coboundary_conditions", palg)
    if rp.dimension != palg.dimension:
        raise PreconditionError("check_coboundary_conditions: dimension "
                                "mismatch")
    return scan("coboundary-conditions", _coboundary_residuals(palg, rp),
                all_failures)


def _coboundary_residuals(palg, rp):
    """The residual stream of the six families, for a base and an r-pair
    already checked; the cubic tensors are built only when the stream is
    read past the quadratic conditions."""
    ops = multiplication_operators(palg)
    yield from _quadratic_residuals(palg, ops, rp)
    c, mats = structure_tensors(palg), _rpair_mats(rp)
    t = {key: evaluate_expression(c, terms, mats)
         for key, terms in _EXPRESSIONS.items()}
    first = t["M"], t["P"], t["N"], t["Q"]
    second = t["M'"], t["N'"], t["P'"], t["Q'"]
    for i in range(palg.dimension):
        yield "dual-structure-1", (i,), _cubic_first_kind(ops, first, i)
        yield "dual-structure-2", (i,), _cubic_second_kind(
            ops, second, i, _rprime(c, ops, rp, i))


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
    flat, d = _numerators(c, _PAFYBE, {"r": r})
    return scan("pafybe", [("pafybe", (), _divided(flat, d, len(r)))]
                if any(flat) else (), all_failures)


# ---------------------------------------------------------------------------
# the two one-parameter special cases
# ---------------------------------------------------------------------------

# How the coboundary conditions read at each specialised r-pair: coboundary
# label -> (case label, sign), the case residual being sign times the
# coboundary residual.  In case one r_succ + sigma r_prec and r_prec +
# sigma r_succ are zero, so coboundary-1 and coboundary-2 vanish
# identically and have no case label.
SPECIAL_CASE_LABELS = {
    "one": {"coboundary-3": ("case-one-A", 1),
            "coboundary-4": ("case-one-B", 1),
            "dual-structure-1": ("case-one-C", 1),
            "dual-structure-2": ("case-one-D", 1)},
    "two": {"coboundary-1": ("case-two-A", 1),
            "coboundary-2": ("case-two-B", 1),
            "coboundary-3": ("case-two-C", -1),
            "coboundary-4": ("case-two-D", 1),
            "dual-structure-1": ("case-two-E", 1),
            "dual-structure-2": ("case-two-F", 1)},
}

SPECIAL_CASES = tuple(SPECIAL_CASE_LABELS)


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
    _require_base("special_case_bialgebra", palg)
    return coboundary_bialgebra(palg, special_case_rpair(r, case))


def special_case_conditions(palg: PreAlgebra, r, case,
                            all_failures=False) -> CheckReport:
    """The per-case condition sets, each equation reported individually;
    their joint validity is equivalent to the specialized candidate passing
    the full bialgebra verification.  They are the coboundary conditions at
    special_case_rpair(r, case), relabelled by SPECIAL_CASE_LABELS: case one
    drops coboundary-1 and -2, which vanish identically, and case-two-C is
    the negated coboundary-3."""
    _require_base("special_case_conditions", palg)
    if case not in SPECIAL_CASES:
        raise PreconditionError("special_case_conditions: unknown case %r"
                                % (case,))
    require_square("special_case_conditions", "r", r, palg.dimension)
    report = scan("special-case-" + case, _coboundary_residuals(
        palg, special_case_rpair(r, case)), all_failures)
    if report.passed:
        return report
    labels = SPECIAL_CASE_LABELS[case]
    failures = tuple((labels[label][0], idx,
                      res if labels[label][1] > 0 else mat_neg(res))
                     for label, idx, res in report.failures)
    return CheckReport(False, report.identity_name, witness=failures[0],
                       failures=failures)
