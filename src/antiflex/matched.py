"""Matched pairs of anti-flexible and of pre-anti-flexible algebras.

A matched pair is two algebras A and B acting on each other by bimodules
such that the direct sum carries a single structure of the same class.
The doubles use the convention A-basis first, then B-basis, and are
assembled from the rows of their factors and pairs (bimodule._sum_rows).

When A and B are anti-flexible (pre-anti-flexible) and each acts on the
other by a bimodule, the pair is matched exactly when its double is
anti-flexible (pre-anti-flexible), which holds exactly on basis triples.
On triples inside A or B it is the identity of that factor.  On a mixed
triple, the block in the algebra that occurs once is an identity of the
bimodule by which the other algebra acts on it, and the block in the
algebra that occurs twice is one compatibility condition.  AF(u, v, w)
changes sign when u and w are exchanged, so a lone argument sits in the
middle or at an end: two conditions per block.  Of the pre-anti-flexible
identities m has the same symmetry and lr none: five per block.  Each
condition is one row of a table (AF_CONDITIONS, PRE_CONDITIONS) read off
the double's identity tensors by algebra.table_residuals; so are both
component bimodules (AF_BIMODULE, PRE_BIMODULE; see
bimodule.block_residuals), so each check evaluates one structure, its
double.

The dual pairs act by duals of regular actions, each a factor's product
read in another index order (see bimodule), so their rows are the
factors' rows reordered, never scanned, and their matrices are built only
when read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from math import lcm

from .algebra import Algebra, PreAlgebra, CheckReport, PreconditionError, \
    _built, _dense, _require_actions, _tensors, _trusted, basis_residuals, \
    check_cyclic_form, check_identities, require_pass, scan, \
    structure_tensors, table_residuals, underlying_algebra
from .bimodule import AF_BIMODULE, PRE_BIMODULE, _double, block_residuals
from .linalg import ONE, transpose, zeros_mat


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

    __getattr__ = _built

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

    __getattr__ = _built

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
    the double.  Both component bimodules must pass first, else
    PreconditionError: A-on-B is the B-block of the double's identities at
    (x, y, a) with x, y in A and a in B, and B-on-A the A-block with the
    roles exchanged (see bimodule.block_residuals).
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

def _common(*structures):
    """The structures' rows under their common denominator, and it."""
    ts = [structure_tensors(s) for s in structures]
    d = lcm(*(t.scale for t in ts))
    return [{op: [[[(k, x * (d // t.scale)) for k, x in row] for row in plane]
                  for plane in rows] if t.scale < d else rows
             for op, rows in t.rows.items()} for t in ts], d


def _names(A, B):
    return tuple(A.basis_names) + tuple(n + "'" for n in B.basis_names)


def build_af_double(mp: AfMatchedPair) -> Algebra:
    """(x+a)(y+b) = (x*y + lB(a)y + rB(b)x) + (a o b + lA(x)b + rA(y)a)."""
    (a, b, f), d = _common(mp.algA, mp.algB, mp)
    return _double(Algebra, _names(mp.algA, mp.algB), mp.algA.dimension, d,
                   {"c": (a["c"], b["c"], f["lA"], f["rA"], f["lB"], f["rB"])})


def build_pre_double(mp: PreMatchedPair) -> PreAlgebra:
    """(x+a) < (y+b) = {x<y + lpB(a)y + rpB(b)x} + {a<b + lpA(x)b + rpA(y)a},
    and the > analog, blockwise on A + B."""
    (a, b, f), d = _common(mp.palgA, mp.palgB, mp)
    return _double(PreAlgebra, _names(mp.palgA, mp.palgB), mp.palgA.dimension,
                   d, {op: (a[op], b[op], *(f[lr + op[0] + "_" + side]
                                            for side in "AB" for lr in "lr"))
                       for op in ("prec", "succ")})


# ---------------------------------------------------------------------------
# the standard dual pair and the skew form on A + A*
# ---------------------------------------------------------------------------

def _require_dual_pair(caller, palgA, palgAstar):
    """The checks of the dual pairs: equal dimensions, and both factors
    pre-anti-flexible."""
    if palgA.dimension != palgAstar.dimension:
        raise PreconditionError("%s: dimension mismatch" % caller)
    for name, p in (("first", palgA), ("second", palgAstar)):
        require_pass(check_identities(p, "pre-anti-flexible"),
                     "%s: %s factor fails the pre-anti-flexible check"
                     % (caller, name))


# each dual pair's action families, in field order: (name, product, sign)
_DUAL_FAMILIES = {
    AfMatchedPair: (("lA", "prec", 1), ("rA", "succ", 1),
                    ("lB", "prec", 1), ("rB", "succ", 1)),
    PreMatchedPair: (("ls_A", "dot", 1), ("rs_A", "prec", -1),
                     ("lp_A", "succ", -1), ("rp_A", "dot", 1),
                     ("ls_B", "dot", 1), ("rs_B", "prec", -1),
                     ("lp_B", "succ", -1), ("rp_B", "dot", 1)),
}


def _dual_pair(cls, palgA, palgB):
    """The dual pair cls of two pre-algebras of one dimension (for an
    AfMatchedPair, of their underlying algebras), unchecked.  A left
    family is the transpose of sign times that product of the factor on
    its side, a right one sign times it, so its rows are that product's
    read in another order."""
    (p, q), d = _common(palgA, palgB)
    n = len(p["prec"])
    maps, rows = [], {}
    for name, op, sign in _DUAL_FAMILIES[cls]:
        left, src = name[0] == "l", (p, q)[name[-1] == "B"][op]
        out = rows[name] = [[[] for _ in range(n)] for _ in range(n)]
        for a, plane in enumerate(src):
            for b, row in enumerate(plane):
                for c, x in row:
                    (out[b][c] if left else out[c][a]).append(
                        (a if left else b, sign * x))
        maps.append(partial(_view, src, sign * d, n, left))
    algs = (palgA, palgB) if cls is PreMatchedPair else map(
        underlying_algebra, (palgA, palgB))
    return _trusted(cls, *algs, *maps, tensors=_tensors(rows, d))


def _view(rows, d, n, left):
    """A family of _dual_pair: its product's rows under d, as matrices."""
    t = _dense(rows, d, n)
    return tuple(transpose(t) if left else t)


def standard_dual_matched(palgA: PreAlgebra,
                          palgAstar: PreAlgebra) -> AfMatchedPair:
    """The dual-action candidate matched pair (R*_prec, L*_succ) of the two
    underlying algebras of a pre-algebra and a companion structure on its
    dual space.  Validity is not asserted here: whether the compatibility
    conditions hold is exactly what check_af_matched and the skew-form
    criterion decide."""
    _require_dual_pair("standard_dual_matched", palgA, palgAstar)
    return _dual_pair(AfMatchedPair, palgA, palgAstar)


def dual_pre_matched(palgA: PreAlgebra,
                     palgAstar: PreAlgebra) -> PreMatchedPair:
    """The eight-map dual-action candidate pair on a pre-algebra and a
    companion structure on its dual: on each side the succ actions are
    (R*_dot, -L*_prec) and the prec actions are (-R*_succ, L*_dot) — the
    four families of the dualized full bimodule, arranged so that the
    underlying algebra of this pair's pre double is the standard dual
    pair's double."""
    _require_dual_pair("dual_pre_matched", palgA, palgAstar)
    return _dual_pair(PreMatchedPair, palgA, palgAstar)


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
