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
PRE_CONDITIONS), read off the nonzero entries of the double's identity
tensors by the one table reader (algebra.table_residuals), for both kinds
of pair.

The preconditions that both component bimodules pass are blocks of the
same double: A-on-B is the B-block of its identities at (x, y, a) with x, y
in A, and B-on-A the A-block at (x, y, a) with x, y in B.  So the rows
AF_BIMODULE and PRE_BIMODULE are read on the double's evaluator too (see
bimodule.block_residuals), and each check evaluates one structure, its
double.

The dual pairs act by duals of regular actions, each the structure tensor
of a factor read in another index order (see bimodule): R*(e_j) is
transpose(c)[j] and L*(e_i) is the plane c[i].  Their action families are
views that share rows with the factors' product tensors, or with one
another (the sum of the two products, read in both orders), and must not
be mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .algebra import Algebra, PreAlgebra, CheckReport, PreconditionError, \
    _require_actions, basis_residuals, check_cyclic_form, check_identities, \
    require_pass, scan, table_residuals, underlying_algebra
from .bimodule import AF_BIMODULE, PRE_BIMODULE, block_residuals, \
    direct_sum_tensor
from .linalg import ONE, mat_neg, t3_add, transpose, zeros_mat


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
        nA, nB = self.algA.dimension, self.algB.dimension
        _require_actions("AfMatchedPair", self, ("lA", "rA"), nA, nB)
        _require_actions("AfMatchedPair", self, ("lB", "rB"), nB, nA)


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
        nA, nB = self.palgA.dimension, self.palgB.dimension
        _require_actions("PreMatchedPair", self,
                         ("ls_A", "rs_A", "lp_A", "rp_A"), nA, nB)
        _require_actions("PreMatchedPair", self,
                         ("ls_B", "rs_B", "lp_B", "rp_B"), nB, nA)


# ---------------------------------------------------------------------------
# the compatibility conditions as blocks of the double
# ---------------------------------------------------------------------------

# One row per condition: (label, kept block, identity of the double, its
# arguments and coordinate, sign).  x, y are basis vectors of A, a, b of B
# and k a coordinate of the kept block.  An A row is read at (x, y, a) =
# (e_i, e_j, f_s) for the index tuple (i, j, s), a B row at (x, a, b) =
# (e_i, f_s, f_t) for (i, s, t).
AF_CONDITIONS = (
    ("af-matched-1", "A", "anti-flexible", "yxak", 1),
    ("af-matched-3", "A", "anti-flexible", "xayk", 1),
    ("af-matched-2", "B", "anti-flexible", "xabk", -1),
    ("af-matched-4", "B", "anti-flexible", "axbk", 1),
)

PRE_CONDITIONS = (
    ("pre-matched-1", "A", "pre-anti-flexible-m", "yxak", -1),
    ("pre-matched-3", "A", "pre-anti-flexible-lr", "axyk", 1),
    ("pre-matched-4", "A", "pre-anti-flexible-lr", "xyak", 1),
    ("pre-matched-7", "A", "pre-anti-flexible-m", "xayk", 1),
    ("pre-matched-9", "A", "pre-anti-flexible-lr", "xayk", 1),
    ("pre-matched-2", "B", "pre-anti-flexible-m", "xbak", 1),
    ("pre-matched-5", "B", "pre-anti-flexible-lr", "xbak", 1),
    ("pre-matched-6", "B", "pre-anti-flexible-lr", "abxk", 1),
    ("pre-matched-8", "B", "pre-anti-flexible-m", "axbk", 1),
    ("pre-matched-10", "B", "pre-anti-flexible-lr", "axbk", 1),
)


def _layout(mp):
    """(checker, report name, nA, nB, bimodule rows, condition rows) of a
    matched pair of either kind."""
    if isinstance(mp, AfMatchedPair):
        return ("check_af_matched", "af-matched", mp.algA.dimension,
                mp.algB.dimension, AF_BIMODULE, AF_CONDITIONS)
    return ("check_pre_matched", "pre-matched", mp.palgA.dimension,
            mp.palgB.dimension, PRE_BIMODULE, PRE_CONDITIONS)


def condition_residuals(mp, tensor):
    """(label, index tuple, residual) of every compatibility condition of a
    matched pair wherever it is nonzero, in checking order, given the
    basis_residuals of its double: for each i, the A rows over (i, j, s),
    then the B rows over (i, s, t).  The A rows and the B rows are each one
    table read, merged by a stable sort on (i, side)."""
    _, _, nA, nB, _, rows = _layout(mp)
    sides = []
    for side, index, k in (("A", "xya", (0, nA)), ("B", "xab", (nA, nB))):
        offset = {"x": 0, "y": 0, "a": nA, "b": nA, "k": k[0]}
        sides += table_residuals(
            tensor, [(label, identity, [(ch, offset[ch]) for ch in letters],
                      sign) for label, block, identity, letters, sign in rows
                     if block == side],
            {"x": nA, "y": nA, "a": nB, "b": nB, "k": k[1]}, index, "k")
    return sorted(sides, key=lambda failure: failure[1][0])


def check_af_matched(mp: AfMatchedPair, all_failures=False) -> CheckReport:
    """The four compatibility conditions over all basis tuples."""
    return _matched_report(mp, basis_residuals(build_af_double(mp)),
                           all_failures)


def check_pre_matched(mp: PreMatchedPair, all_failures=False) -> CheckReport:
    """The ten compatibility conditions over all basis tuples."""
    return _matched_report(mp, basis_residuals(build_pre_double(mp)),
                           all_failures)


def _matched_report(mp, tensor, all_failures=False) -> CheckReport:
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
        require_pass(scan(side, block_residuals(bimodule, tensor, base,
                                                module)),
                     "%s: component bimodule %s fails" % (caller, side))
    return scan(name, condition_residuals(mp, tensor), all_failures)


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


# ---------------------------------------------------------------------------
# the standard dual pair and the skew form on A + A*
# ---------------------------------------------------------------------------

def _require_dual_pair(caller, palgA, palgAstar, check_inputs):
    """The checks the dual pairs share: equal dimensions, and with
    check_inputs both factors pre-anti-flexible."""
    if palgA.dimension != palgAstar.dimension:
        raise PreconditionError("%s: dimension mismatch" % caller)
    if check_inputs:
        for name, p in (("first", palgA), ("second", palgAstar)):
            require_pass(check_identities(p, "pre-anti-flexible"),
                         "%s: %s factor fails the pre-anti-flexible check"
                         % (caller, name))


def standard_dual_matched(palgA: PreAlgebra, palgAstar: PreAlgebra,
                          check_inputs=True) -> AfMatchedPair:
    """The dual-action candidate matched pair (R*_prec, L*_succ) of the two
    underlying algebras of a pre-algebra and a companion structure on its
    dual space.  Validity is not asserted here: whether the compatibility
    conditions hold is exactly what check_af_matched and the skew-form
    criterion decide."""
    _require_dual_pair("standard_dual_matched", palgA, palgAstar,
                       check_inputs)
    return AfMatchedPair(
        underlying_algebra(palgA), underlying_algebra(palgAstar),
        transpose(palgA.prec), palgA.succ,
        transpose(palgAstar.prec), palgAstar.succ)


def dual_pre_matched(palgA: PreAlgebra, palgAstar: PreAlgebra,
                     check_inputs=True) -> PreMatchedPair:
    """The eight-map dual-action candidate pair on a pre-algebra and a
    companion structure on its dual: on each side the succ actions are
    (R*_dot, -L*_prec) and the prec actions are (-R*_succ, L*_dot) — the
    four families of the dualized full bimodule, arranged so that the
    underlying algebra of this pair's pre double is the standard dual
    pair's double."""
    _require_dual_pair("dual_pre_matched", palgA, palgAstar, check_inputs)
    actions = []
    for p in (palgA, palgAstar):
        dot = t3_add(p.prec, p.succ)
        actions += [transpose(dot), [mat_neg(m) for m in p.prec],
                    [mat_neg(m) for m in transpose(p.succ)], dot]
    return PreMatchedPair(palgA, palgAstar, *actions)


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
