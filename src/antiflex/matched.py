"""Matched pairs of anti-flexible and of pre-anti-flexible algebras.

A matched pair is two algebras A and B acting on each other by bimodules
such that the direct sum carries a single structure of the same class.
The double products are built blockwise with the fixed convention A-basis
first, then B-basis.

The checkers rest on the theorem that defines matched pairs: when A and B
are anti-flexible (pre-anti-flexible) and each acts on the other by a
bimodule, the pair is matched exactly when its double A + B is
anti-flexible (pre-anti-flexible).  Every identity is multilinear, so it
holds on the double exactly when it holds on basis triples.  On triples
inside A or inside B it is the identity of that factor.  On a mixed triple,
the block of the residual in the algebra that occurs once is an identity of
the bimodule by which the other algebra acts on it, and the block in the
algebra that occurs twice is one compatibility condition.  The
anti-flexible identity AF(u, v, w) changes sign when u and w are exchanged,
so up to sign a lone argument sits in the middle or at an end: two
conditions for each block.  Of the pre-anti-flexible identities, m has the
same symmetry and lr has none, which gives five conditions for each block.
Each condition is therefore one row of a table (AF_CONDITIONS,
PRE_CONDITIONS), read from the evaluator of the double (see
algebra.basis_residuals) by one generator for both kinds of pair.

The preconditions that both component bimodules pass are blocks of the
same double: A-on-B is the B-block of its identities at (x, y, a) with x, y
in A, and B-on-A the A-block at (x, y, a) with x, y in B.  So the rows
AF_BIMODULE and PRE_BIMODULE are read on the double's evaluator too (see
bimodule.block_residuals), and each check evaluates one structure, its
double.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .algebra import Algebra, PreAlgebra, CheckReport, PreconditionError, \
    basis_residuals, check_cyclic_form, check_identities, require_tensor, \
    scan, underlying_algebra
from .bimodule import AF_BIMODULE, PRE_BIMODULE, block_residuals, \
    direct_sum_tensor, dual_maps, multiplication_operators
from .linalg import ONE, vec_neg, zeros_mat, mat_add, transpose


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
        _require_actions("AfMatchedPair", self, self.algA, self.algB,
                         ("lA", "rA"), ("lB", "rB"))


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
        _require_actions("PreMatchedPair", self, self.palgA, self.palgB,
                         ("ls_A", "rs_A", "lp_A", "rp_A"),
                         ("ls_B", "rs_B", "lp_B", "rp_B"))


def _require_actions(caller, mp, A, B, fields_A, fields_B):
    """Store each action family of a matched pair as a tuple, after checking
    that it holds one matrix of ints and Fractions per basis element of the
    acting algebra: A's maps on B are (dim A, dim B, dim B) and B's maps on
    A are (dim B, dim A, dim A)."""
    nA, nB = A.dimension, B.dimension
    for fields, shape in ((fields_A, (nA, nB, nB)), (fields_B, (nB, nA, nA))):
        for name in fields:
            maps = getattr(mp, name)
            require_tensor(caller, name, maps, shape)
            object.__setattr__(mp, name, tuple(maps))


# ---------------------------------------------------------------------------
# the compatibility conditions as blocks of the double
# ---------------------------------------------------------------------------

# One row per condition: (label, kept block, identity of the double, its
# arguments, sign).  x, y are basis vectors of A and a, b of B.  An A row is
# evaluated at (x, y, a) = (e_i, e_j, f_s) for the index tuple (i, j, s), a
# B row at (x, a, b) = (e_i, f_s, f_t) for (i, s, t).
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


def _layout(mp):
    """(checker, report name, nA, nB, bimodule rows, condition rows) of a
    matched pair of either kind."""
    if isinstance(mp, AfMatchedPair):
        return ("check_af_matched", "af-matched", mp.algA.dimension,
                mp.algB.dimension, AF_BIMODULE, AF_CONDITIONS)
    return ("check_pre_matched", "pre-matched", mp.palgA.dimension,
            mp.palgB.dimension, PRE_BIMODULE, PRE_CONDITIONS)


def condition_residuals(mp):
    """(label, index tuple, residual) of every compatibility condition of a
    matched pair at every basis tuple, in checking order: for each i, the
    A rows over (i, j, s), then the B rows over (i, s, t)."""
    double = build_af_double(mp) if isinstance(mp, AfMatchedPair) \
        else build_pre_double(mp)
    return _conditions(mp, basis_residuals(double))


def _conditions(mp, evaluate):
    """condition_residuals, given the basis_residuals of the double."""
    _, _, nA, nB, _, rows = _layout(mp)
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


def check_af_matched(mp: AfMatchedPair, all_failures=False) -> CheckReport:
    """The four compatibility conditions over all basis tuples."""
    return _matched_report(mp, basis_residuals(build_af_double(mp)),
                           all_failures)


def check_pre_matched(mp: PreMatchedPair, all_failures=False) -> CheckReport:
    """The ten compatibility conditions over all basis tuples."""
    return _matched_report(mp, basis_residuals(build_pre_double(mp)),
                           all_failures)


def _matched_report(mp, evaluate, all_failures=False) -> CheckReport:
    """check_af_matched or check_pre_matched, given the basis_residuals of
    the double, so that a caller that also checks the whole double
    evaluates it once.

    Both component bimodules must pass first, else PreconditionError.  Each
    is a block of the double's identities: A-on-B the B-block at (x, y, a)
    with x, y in A and a in B, B-on-A the A-block at (x, y, a) with x, y in
    B and a in A (see bimodule.block_residuals).
    """
    caller, name, nA, nB, bimodule, _ = _layout(mp)
    A, B = range(nA), range(nA, nA + nB)
    for side, base, module in (("A-on-B", A, B), ("B-on-A", B, A)):
        rep = scan(side, block_residuals(bimodule, evaluate, base, module))
        if not rep.passed:
            raise PreconditionError("%s: component bimodule %s fails; "
                                    "witness %r" % (caller, side, rep.witness))
    return scan(name, _conditions(mp, evaluate), all_failures)


# ---------------------------------------------------------------------------
# the doubles
# ---------------------------------------------------------------------------

def build_af_double(mp: AfMatchedPair) -> Algebra:
    """(x+a)(y+b) = (x*y + lB(a)y + rB(b)x) + (a o b + lA(x)b + rA(y)a)."""
    names = tuple(mp.algA.basis_names) + tuple(
        n + "'" for n in mp.algB.basis_names)
    return Algebra(mp.algA.dimension + mp.algB.dimension, direct_sum_tensor(
        mp.algA.product, mp.algB.product, mp.lA, mp.rA, mp.lB, mp.rB), names)


def build_pre_double(mp: PreMatchedPair) -> PreAlgebra:
    """(x+a) < (y+b) = {x<y + lpB(a)y + rpB(b)x} + {a<b + lpA(x)b + rpA(y)a},
    and the > analog, blockwise on A + B."""
    A, B = mp.palgA, mp.palgB
    names = tuple(A.basis_names) + tuple(n + "'" for n in B.basis_names)
    return PreAlgebra(
        A.dimension + B.dimension,
        direct_sum_tensor(A.prec, B.prec, mp.lp_A, mp.rp_A, mp.lp_B, mp.rp_B),
        direct_sum_tensor(A.succ, B.succ, mp.ls_A, mp.rs_A, mp.ls_B, mp.rs_B),
        names)


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

def _dual_operators(caller, palgA, palgAstar, check_inputs):
    """The regular operator families of a pre-algebra and of a companion
    structure on its dual, after the checks the dual pairs share."""
    if palgA.dimension != palgAstar.dimension:
        raise PreconditionError("%s: dimension mismatch" % caller)
    if check_inputs:
        for name, p in (("first", palgA), ("second", palgAstar)):
            rep = check_identities(p, "pre-anti-flexible")
            if not rep.passed:
                raise PreconditionError(
                    "%s: %s factor fails the pre-anti-flexible check; "
                    "witness %r" % (caller, name, rep.witness))
    return multiplication_operators(palgA), multiplication_operators(palgAstar)


def standard_dual_matched(palgA: PreAlgebra, palgAstar: PreAlgebra,
                          check_inputs=True) -> AfMatchedPair:
    """The dual-action candidate matched pair (R*_prec, L*_succ) of the two
    underlying algebras of a pre-algebra and a companion structure on its
    dual space.  Validity is not asserted here: whether the compatibility
    conditions hold is exactly what check_af_matched and the skew-form
    criterion decide."""
    opsA, opsS = _dual_operators("standard_dual_matched", palgA, palgAstar,
                                 check_inputs)
    return AfMatchedPair(
        underlying_algebra(palgA), underlying_algebra(palgAstar),
        dual_maps(opsA["R_prec"]), dual_maps(opsA["L_succ"]),
        dual_maps(opsS["R_prec"]), dual_maps(opsS["L_succ"]))


def dual_pre_matched(palgA: PreAlgebra, palgAstar: PreAlgebra,
                     check_inputs=True) -> PreMatchedPair:
    """The eight-map dual-action candidate pair on a pre-algebra and a
    companion structure on its dual: on each side the succ actions are
    (R*_dot, -L*_prec) and the prec actions are (-R*_succ, L*_dot) — the
    four families of the dualized full bimodule, arranged so that the
    underlying algebra of this pair's pre double is the standard dual
    pair's double."""
    opsA, opsS = _dual_operators("dual_pre_matched", palgA, palgAstar,
                                 check_inputs)
    negdual = lambda fam: tuple([[-v for v in row] for row in transpose(m)]
                                for m in fam)
    return PreMatchedPair(
        palgA, palgAstar,
        dual_maps(opsA["R_dot"]), negdual(opsA["L_prec"]),
        negdual(opsA["R_succ"]), dual_maps(opsA["L_dot"]),
        dual_maps(opsS["R_dot"]), negdual(opsS["L_prec"]),
        negdual(opsS["R_succ"]), dual_maps(opsS["L_dot"]))


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
    rep = check_cyclic_form(d, omega_matrix(d.dimension // 2), all_failures)
    return replace(rep, identity_name="omega-double")
