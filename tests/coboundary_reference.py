"""References for antiflex.coboundary.

The Fraction path: the structure tensors, the term-list evaluator, the
r-term of the second cubic condition and the PAFYBE and coboundary checks
as they were before the placed-product kernel ran in ints under one common
denominator, with the placed-product kernel as it was then: it takes the
factor matrices and re-extracts their nonzeros at every call.  Every sum
is a Fraction sum, and the int path is tested against them.  The
coboundary comultiplications and the four quadratic and two cubic
condition families are the dense operator forms they had before they ran
in ints on the support: each operator a matrix from
multiplication_operators, applied to an r-sum by apply2 or to a cubic
tensor at one slot by apply_slot3.

The two one-parameter special cases written out by hand from r: the
per-case residuals and cubic term lists that antiflex.coboundary, which
reads both cases as the coboundary conditions at the specialised r-pair,
is tested against, with the helpers that derived the companion tensors
of each cubic expression by the decoration flip and the outer slot
swap.

The block reader of the coboundary families and the int PAFYBE check as
they were before algebra.flat_residuals read every flat int residual:
the reader took n and the number k of basis indices, and the PAFYBE
check built its one residual by hand."""

from itertools import product

from antiflex.algebra import PreAlgebra, CheckReport, PreconditionError, \
    _divided, check_identities, require_square, scan
from antiflex.bimodule import act
from antiflex.coboundary import SPECIAL_CASES, _EXPRESSIONS, _PAFYBE, \
    _PAFYBE_TERMS, _numerators, _require_base, _rpair_mats, \
    special_case_rpair
from antiflex.linalg import ZERO, eye, mat_add, mat_mul, mat_neg, mat_sub, \
    t3_sub, transpose, zeros_mat

from helpers import apply2, apply_slot3, flp_expression, mat_is_zero, \
    multiplication_operators, sigma13_expression, t3_add


# ---------------------------------------------------------------------------
# the Fraction path
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


def _rprime(c, ops, rp, x):
    """The r-term of the second cubic condition at the basis element x;
    None, a zero term, when r_prec + r_succ is zero."""
    s12 = mat_add(rp.r_prec, rp.r_succ)
    if mat_is_zero(s12):
        return None
    op1 = mat_add(ops["R_prec"][x], ops["L_succ"][x])
    op2 = mat_add(ops["L_prec"][x], ops["R_succ"][x])
    n = len(s12)
    out = _zeros_flat(n)
    # each operator acts on the second component of r_prec, the one at the
    # slot it shares with r_prec + r_succ
    placed_product(mat_mul(rp.r_prec, transpose(op1)), (3, 2), s12, (1, 2),
                   c["succ"], out)
    placed_product(mat_mul(rp.r_prec, transpose(op2)), (3, 1), s12, (2, 1),
                   c["succ"], out, -1)
    return _unflatten(out, n)


def coboundary_delta(palg: PreAlgebra, rp):
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


def check_coboundary_conditions(palg: PreAlgebra, rp,
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


def pafybe_grid_search(palg: PreAlgebra, coeffs):
    """The symmetric r with entries in coeffs (Fractions, distinct) that
    solve PAFYBE, in the order of itertools.product over the upper
    triangle, each candidate checked in Fractions."""
    n = palg.dimension
    shape = [(i, j) for i in range(n) for j in range(i, n)]
    c = structure_tensors(palg)
    found = []
    for vals in product(coeffs, repeat=len(shape)):
        r = [[ZERO] * n for _ in range(n)]
        for (i, j), v in zip(shape, vals):
            r[i][j] = r[j][i] = v
        if pafybe_core(c, r).passed:
            found.append(r)
    return found


# ---------------------------------------------------------------------------
# the special cases, by hand
# ---------------------------------------------------------------------------

def _first_kind_tensors(c, expr, mats):
    """M, flp M, sigma13 flp M and flp sigma13 flp M of a cubic expression;
    none of them depends on the basis element, so they are evaluated once
    per check."""
    flp = flp_expression(expr)
    swapped = sigma13_expression(flp)
    return tuple(evaluate_expression(c, e, mats)
                 for e in (expr, flp, swapped, flp_expression(swapped)))


def _second_kind_tensors(c, m_expr, p_expr, mats):
    """M, flp M, P and flp P, evaluated once per check."""
    return tuple(evaluate_expression(c, e, mats)
                 for e in (m_expr, flp_expression(m_expr),
                           p_expr, flp_expression(p_expr)))


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


# ---------------------------------------------------------------------------
# the per-family block reader and the int PAFYBE check
# ---------------------------------------------------------------------------

def _blocks(families, n, k, d):
    """(label, index, residual) for each family at each tuple of k basis
    indices where its block of the flat tensor over (index, residual) is
    nonzero, in order index then family, divided back by d.  A family's
    tensor is built by families[label]() on its first read."""
    built, size = {}, n ** (4 - k)
    for at, idx in enumerate(product(range(n), repeat=k)):
        for label, build in families.items():
            if label not in built:
                flat = build()
                built[label] = flat if any(flat) else ()
            block = built[label][at * size:(at + 1) * size]
            if any(block):
                yield label, idx, _divided(block, d, (n,) * (4 - k))


def pafybe_int_core(c, r, all_failures=False) -> CheckReport:
    """check_pafybe on the structure tensors of the pre-algebra, built once
    by the caller; the dimension of r is not checked."""
    n = len(r)
    flat, d = _numerators(c, _PAFYBE_TERMS, {"r": r})
    return scan("pafybe", [("pafybe", (), _divided(flat, d, (n, n, n)))]
                if any(flat) else (), all_failures)
