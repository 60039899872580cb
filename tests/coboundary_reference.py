"""The two one-parameter special cases written out by hand from r: the
per-case residuals and cubic term lists that antiflex.coboundary, which
reads both cases as the coboundary conditions at the specialised r-pair,
is tested against, with the helpers that derived the companion tensors
of each cubic expression by the decoration flip and the outer slot
swap."""

from itertools import product

from antiflex.algebra import PreAlgebra, CheckReport, PreconditionError, \
    check_identities, scan
from antiflex.bimodule import act, multiplication_operators
from antiflex.coboundary import SPECIAL_CASES, _cubic_first_kind, \
    _cubic_second_kind, _rprime, evaluate_expression, flp_expression, \
    sigma13_expression, special_case_rpair, structure_tensors
from antiflex.linalg import apply2, eye, mat_add, mat_mul, mat_neg, mat_sub, \
    transpose


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
