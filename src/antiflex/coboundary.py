"""Coboundary comultiplications built from a pair of r-elements.

An r-element is an element of A (x) A stored as a coefficient matrix.  The
rank-3 calculus places an r-element at two of three tensor slots; a product
of two placed elements sharing exactly one slot multiplies the components
meeting there (the first factor's on the left) and keeps the free ones.
The cubic expressions of the dual-structure conditions are signed sums of
such placed products, encoded as symbolic term lists.

Everything runs in ints on the support: the structure constants are scaled
by their lcd D_c (structure_tensors), the factor matrices by theirs, D_m,
each multiplication operator is an image table of the nonzero structure
rows, and every result is homogeneous, so it is divided back once, only
where it is nonzero (the scales are given with each function).

The two one-parameter special cases are the coboundary conditions at the
r-pairs (r, -sigma r) and (-r, r), relabelled by SPECIAL_CASE_LABELS.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from itertools import compress

from .algebra import PreAlgebra, CheckReport, PreconditionError, \
    _divided, _lcd, _require_kind, _scaled, _trusted, check_identities, \
    flat_residuals, require_pass, require_square, scan, structure_tensors
from .bialgebra import Bialgebra
from .linalg import transpose, mat_add, mat_neg


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
    """Add sign times the product of two placed r-elements to out, a flat
    rank-3 tensor with [s1][s2][s3] at (s1 * n + s2) * n + s3.

    Each factor is given by its nonzero entries at its placement (see
    _placed_nonzeros); the placements share one slot, of stride step in
    out, where the two components meeting are multiplied by the sparse
    rows of a structure tensor, the first factor's on the left.
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

def _compiled(terms):
    """A term list with the slot its two factors share appended to each
    term: (sign, factor, op, factor, shared slot)."""
    return tuple((sign, f1, op, f2, _shared_slot(f1[1:], f2[1:]))
                 for sign, f1, op, f2 in terms)


def _int_entries(mats):
    """The nonzero entries ((i, j), x) of each factor matrix in ints, every
    matrix scaled by the one lcd D_m of their entries, and D_m; matrices of
    ints are taken as they are, with D_m = 1."""
    entries = {tag: [((i, j), x) for i, row in enumerate(m)
                     for j, x in enumerate(row) if x]
               for tag, m in mats.items()}
    if all(type(x) is int for e in entries.values() for _, x in e):
        return entries, 1
    d = _lcd(x for e in entries.values() for _, x in e)
    return {tag: _scaled(e, d) for tag, e in entries.items()}, d


def _evaluated(c, terms, entries, placed, out):
    """Add a compiled term list on the structure tensors c (see
    structure_tensors) and the int factor entries of _int_entries into the
    flat int tensor out, and return it: each term is bilinear in its two
    factors, so every signed term adds D_c * D_m**2 times its value.
    placed caches the placed nonzeros of each factor at each shared slot;
    term lists on the same entries may share it."""
    n = len(c.rows["prec"])
    stride = (n * n, n, 1)
    for sign, f1, op, f2, s in terms:
        for f in (f1, f2):
            if (f, s) not in placed:
                placed[f, s] = _placed_nonzeros(entries[f[0]], f[1:], s,
                                                stride)
        placed_product(placed[f1, s], placed[f2, s], stride[s - 1],
                       c.rows[op], out, sign)
    return out


def _numerators(c, terms, mats):
    """A compiled term list on the factor matrices mats in ints: (the flat
    tensor of its value times D, D), D = D_c * D_m**2."""
    entries, d = _int_entries(mats)
    n = len(c.rows["prec"])
    return _evaluated(c, terms, entries, {}, [0] * n ** 3), c.scale * d * d


def evaluate_expression(c, terms, mats):
    """Evaluate a term list on the structure tensors c of a pre-algebra
    (see structure_tensors); mats maps factor tags to coefficient matrices.
    Every signed term is added into one int tensor, which is divided back
    once."""
    n = len(c.rows["prec"])
    return _divided(*_numerators(c, _compiled(terms), mats), (n, n, n))


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
_COMPILED = {key: _compiled(terms) for key, terms in _EXPRESSIONS.items()}


def mnpq(palg: PreAlgebra, rp: RPair, which):
    """One of the eight cubic tensors of the dual-structure conditions,
    evaluated from its printed definition."""
    key = str(which).replace("′", "'")
    if key not in _EXPRESSIONS:
        raise PreconditionError("mnpq: unknown expression %r" % (which,))
    if rp.dimension != palg.dimension:
        raise PreconditionError("mnpq: dimension mismatch")
    n = palg.dimension
    return _divided(*_numerators(structure_tensors(palg), _COMPILED[key],
                                 _rpair_mats(rp)), (n, n, n))


# the r-term of the second cubic condition: each operator acts on the
# second component of r_prec, the one at the slot it shares with
# r_prec + r_succ.  op1 and op2 are r_prec acted on at every e_i at once:
# their first component is i * n**3 + p, which placed at slot 3, of
# stride 1, is the offset of e_i's block in a flat tensor over
# (i, s1, s2, s3).
_RPRIME = _compiled(((1, ("op1", 3, 2), "succ", ("sum", 1, 2)),
                     (-1, ("op2", 3, 1), "succ", ("sum", 2, 1))))
_RPRIME_OPS = {"op1": ("Rp[i]", "Ls[i]"), "op2": ("Lp[i]", "Rs[i]")}


# ---------------------------------------------------------------------------
# multiplication operators on the support
# ---------------------------------------------------------------------------
# An operator is written as in the dense formulas: L or R of prec, succ
# or dot at a basis index, Lp[i] ... Rd[j]; at a product of two, Ls[i<j]
# for L_succ(e_i prec e_j) and Rp[j>i] for R_prec(e_j succ e_i); two in a
# row for their composite, the second applied first; "id" for the
# identity.  Its image table lists, for each basis vector e_u, the nonzero
# coordinates v of its images as pairs (offset, v), the offset of the
# index and of the coordinate in a flat int output, so that a contraction
# adds at sums of offsets and never visits a zero of the structure.
_OPERATOR = re.compile(r"([LR])([psd])\[(\w)(?:([<>])(\w))?\]")
_PRODUCTS = {"p": "prec", "s": "succ", "d": "dot", "<": "prec", ">": "succ"}


def _operator_table(c, n, strides, tables, spec, s_out):
    """The image table of an operator on the structure tensors c, with an
    index x at stride strides[x] and the coordinate at s_out, cached in
    tables.  The identity covers n * n basis vectors, so that it can carry
    two slots of a cubic tensor, and a composite passes its inner index at
    stride n**4, past every offset of a flat rank-4 output."""
    if (spec, s_out) in tables:
        return tables[spec, s_out]
    big, ops = n ** 4, [m.group() for m in _OPERATOR.finditer(spec)]
    if not ops:
        t = [[(u * s_out, 1)] for u in range(n * n)]
    elif len(ops) == 2:
        t = _through(_operator_table(c, n, strides, tables, ops[1], big),
                     _operator_table(c, n, strides, tables, ops[0], s_out),
                     big)
    else:
        side, op, x, at, y = _OPERATOR.fullmatch(spec).groups()
        rows, s_var = c.rows[_PRODUCTS[op]], big if at else strides[x]
        t = [[] for _ in rows]
        for a, plane in enumerate(rows):
            for b, row in enumerate(plane):
                t[b if side == "L" else a] += [
                    ((a if side == "L" else b) * s_var + o * s_out, v)
                    for o, v in row]
        if at:                  # the product e_x at e_y, by coordinate
            made = [[] for _ in rows]
            for a, plane in enumerate(c.rows[_PRODUCTS[at]]):
                for b, row in enumerate(plane):
                    for k, v in row:
                        made[k].append((a * strides[x] + b * strides[y], v))
            t = _through(t, made, big)
    tables[spec, s_out] = t
    return t


def _through(first, then, big):
    """The image table of a composite: each entry of first carries an index
    k at stride big, which the entries then[k] replace."""
    out = []
    for entries in first:
        acc = {}
        for off, c1 in entries:
            k, rest = divmod(off, big)
            for o, c2 in then[k]:
                acc[rest + o] = acc.get(rest + o, 0) + c1 * c2
        out.append([(o, v) for o, v in acc.items() if v])
    return out


def _contract(out, entries, left, right, sign=1):
    """Add sign * x * c1 * c2 into out at o1 + o2 for each nonzero entry
    ((u, v), x) and each (o1, c1) of left[u] and (o2, c2) of right[v]: the
    operator pair left (x) right applied to a matrix of ints."""
    for (u, v), x in entries:
        images = right[v]
        if not images:
            continue
        if sign < 0:
            x = -x
        for o1, c1 in left[u]:
            k = x * c1
            for o2, c2 in images:
                out[o1 + o2] += k * c2


def _family(terms, table, sums, n, rank):
    """The flat int tensor over rank indices of terms (sign, r-sum, P, Q),
    each adding sign (P (x) Q) applied to the r-sum, P's coordinate at
    stride n and Q's at 1; () when every r-sum of the terms is zero."""
    out = ()
    for sign, m, p, q in terms:
        if sums[m]:
            out = out or [0] * n ** rank
            _contract(out, sums[m], table(p, n), table(q, 1), sign)
    return out


def _rsums(rp):
    """The int entries (see _int_entries) of r_prec and r_succ ("prec",
    "succ"), their flips ("sp", "ss"), their sum and its flip ("sum",
    "ssum"), and r_succ + sigma r_prec and r_prec + sigma r_succ ("s_sp",
    "p_ss"), under one D_m, and D_m."""
    e, d = _int_entries({"prec": rp.r_prec, "succ": rp.r_succ})
    flip = lambda entries: [((j, i), x) for (i, j), x in entries]
    e["sp"], e["ss"] = flip(e["prec"]), flip(e["succ"])
    for key, a, b in (("sum", "prec", "succ"), ("s_sp", "succ", "sp"),
                      ("p_ss", "prec", "ss")):
        acc = dict(e[a])
        for ij, x in e[b]:
            acc[ij] = acc.get(ij, 0) + x
        e[key] = [(ij, x) for ij, x in acc.items() if x]
    e["ssum"] = flip(e["sum"])
    return e, d


# ---------------------------------------------------------------------------
# the coboundary comultiplications
# ---------------------------------------------------------------------------

# D_prec and D_succ at each e_i as terms (sign, r-sum, P, Q) of _family
_DELTAS = (((1, "prec", "id", "Ls[i]"), (1, "ss", "Rd[i]", "id")),
           ((1, "succ", "id", "Ld[i]"), (1, "sp", "Rp[i]", "id")))


def coboundary_delta(palg: PreAlgebra, rp: RPair):
    """The comultiplication tensors induced by an r-pair:

      D_succ(x) = (id (x) L_dot(x)) r_succ + (R_prec(x) (x) id) sigma r_prec
      D_prec(x) = (id (x) L_succ(x)) r_prec + (R_dot(x) (x) id) sigma r_succ

    returned as (delta_prec, delta_succ) in comultiplication-tensor form,
    each summed in ints and divided back by D_c * D_m.
    """
    c = structure_tensors(palg)
    n = len(c.rows["prec"])
    if rp.dimension != n:
        raise PreconditionError("coboundary_delta: dimension mismatch")
    sums, d = _rsums(rp)
    table = partial(_operator_table, c, n, {"i": n * n}, {})
    return tuple(_divided(_family(terms, table, sums, n, 3) or
                          [0] * n ** 3, c.scale * d, (n, n, n))
                 for terms in _DELTAS)


def coboundary_bialgebra(palg: PreAlgebra, rp: RPair) -> Bialgebra:
    """The candidate bialgebra whose comultiplications are the coboundaries
    of the r-pair."""
    return _trusted(Bialgebra, palg, *coboundary_delta(palg, rp))


# ---------------------------------------------------------------------------
# the six coboundary condition families
# ---------------------------------------------------------------------------

# The four quadratic conditions on each basis pair (e_i, e_j) as terms
# (sign, r-sum, P, Q) of _family.
_QUADRATIC = {
    "coboundary-1": (
        (1, "s_sp", "Rp[j]", "Ld[i]"), (1, "s_sp", "Ls[j]", "Rd[i]")),
    "coboundary-2": (
        (1, "s_sp", "Ls[i]", "Ld[j]"), (-1, "s_sp", "Rp[j]", "Rd[i]"),
        (-1, "s_sp", "Ls[j]", "Ld[i]"), (1, "s_sp", "Rp[i]", "Rd[j]")),
    "coboundary-3": (
        (1, "p_ss", "Rs[j]", "Ls[i]"), (1, "p_ss", "Lp[j]", "Rp[i]"),
        (1, "ssum", "Rp[j]", "Ls[i]"), (1, "ssum", "Ls[j]", "Rp[i]"),
        (-1, "ssum", "Ls[j<i]", "id"), (-1, "ssum", "Rp[i>j]", "id"),
        (1, "sum", "id", "Ls[i<j]"), (1, "sum", "id", "Rp[j>i]")),
    "coboundary-4": (
        (1, "sum", "Rp[i]", "Rp[j]"), (1, "sum", "Ls[i]", "Ls[j]"),
        (-1, "sum", "id", "Ls[i]Rp[j]"), (-1, "sum", "id", "Rp[i]Ls[j]"),
        (1, "ssum", "Ls[i]Rp[j]", "id"), (1, "ssum", "Rp[i]Ls[j]", "id"),
        (-1, "ssum", "Ls[j]", "Ls[i]"), (-1, "ssum", "Rp[j]", "Rp[i]"),
        (1, "s_sp", "Rp[i]", "Rs[j]"), (1, "s_sp", "Ls[i]", "Lp[j]"),
        (-1, "p_ss", "Lp[j]", "Ls[i]"), (-1, "p_ss", "Rs[j]", "Rp[i]")),
}

# The two cubic conditions on each basis element e_i: terms (sign, tensor,
# operator, slot), each adding sign times the operator at e_i applied at
# slot 3 or slot 1 of a cubic tensor; the second also adds the r-term.
_CUBIC = {
    "dual-structure-1": ((1, "M", "Ls[i]", 3), (1, "P", "Rp[i]", 3),
                         (-1, "N", "Rp[i]", 1), (-1, "Q", "Ls[i]", 1)),
    "dual-structure-2": ((1, "M'", "Ld[i]", 3), (1, "N'", "Rd[i]", 3),
                         (-1, "P'", "Rp[i]", 1), (-1, "Q'", "Ls[i]", 1)),
}


def _require_base(caller, palg):
    """The structure tensors of palg, after raising PreconditionError,
    naming the caller, unless palg passes the pre-anti-flexible check."""
    require_pass(check_identities(palg, "pre-anti-flexible"),
                 "%s: base fails the pre-anti-flexible check" % caller)
    return structure_tensors(palg)


def check_coboundary_conditions(palg: PreAlgebra, rp: RPair,
                                all_failures=False) -> CheckReport:
    """The six condition families whose joint validity is equivalent to the
    coboundary comultiplications making (A, A*) a bialgebra: four quadratic
    conditions over basis pairs, and two cubic dual-structure conditions
    over basis elements (P, N, Q are the images of M, and N', Q' of M'
    and P', under the decoration flip and the outer slot swap)."""
    c = _require_base("check_coboundary_conditions", palg)
    if rp.dimension != palg.dimension:
        raise PreconditionError("check_coboundary_conditions: dimension "
                                "mismatch")
    return scan("coboundary-conditions", _coboundary_residuals(c, rp),
                all_failures)


def _coboundary_residuals(c, rp):
    """The nonzero residuals of the six families, given the structure
    tensors c of a base and an r-pair already checked, in ints: the
    quadratic families under D_c**2 * D_m and the cubic ones under
    D_c**2 * D_m**2, each built when the stream first reads it."""
    n = rp.dimension
    sums, d = _rsums(rp)
    table = partial(_operator_table, c, n, {"i": n ** 3, "j": n * n}, {})
    yield from flat_residuals({label: lambda terms=terms: _family(
        terms, table, sums, n, 4) for label, terms in _QUADRATIC.items()},
        (n, n), (n, n), c.scale ** 2 * d)
    placed, nn = {}, n * n

    def cubic(label):
        out = [0] * n ** 4
        for sign, key, name, slot in _CUBIC[label]:
            # the tensor as a matrix over (s1 s2, s3) or over (s2 s3, s1)
            flat = _evaluated(c, _COMPILED[key], sums, placed, [0] * n ** 3)
            s_in, s_out = (n, 1) if slot == 3 else (1, nn)
            entries = [(divmod(t, n) if slot == 3 else divmod(t, nn)[::-1],
                        flat[t]) for t in compress(range(n ** 3), flat)]
            _contract(out, entries, table("id", s_in), table(name, s_out),
                      sign)
        if label == "dual-structure-2" and sums["sum"]:
            ops = partial(_operator_table, c, n, {"i": nn}, {})
            factors = {"sum": sums["sum"]}
            for tag, names in _RPRIME_OPS.items():
                op = _family([(1, "prec", "id", name) for name in names],
                             ops, sums, n, 3)
                factors[tag] = [((t // nn * n ** 3 + t // n % n, t % n), x)
                                for t, x in enumerate(op) if x]
            _evaluated(c, _RPRIME, factors, {}, out)
        return out

    yield from flat_residuals({label: lambda label=label: cubic(label)
                               for label in _CUBIC}, (n,), (n, n, n),
                              (c.scale * d) ** 2)


# ---------------------------------------------------------------------------
# the Yang-Baxter-type equation
# ---------------------------------------------------------------------------

_PAFYBE = ((1, ("r", 2, 3), "dot", ("r", 1, 2)),
           (-1, ("r", 1, 2), "prec", ("r", 1, 3)),
           (-1, ("r", 1, 3), "succ", ("r", 2, 3)))
_PAFYBE_TERMS = _compiled(_PAFYBE)


def check_pafybe(palg: PreAlgebra, r, all_failures=False) -> CheckReport:
    """The quadratic equation r_23 . r_12 = r_12 prec r_13 + r_13 succ r_23
    for a single r-element; symmetry of r is not required (use
    r_is_symmetric to report it separately)."""
    _require_kind("check_pafybe", palg, PreAlgebra)
    require_square("check_pafybe", "r", r, palg.dimension)
    flat, d = _numerators(structure_tensors(palg), _PAFYBE_TERMS, {"r": r})
    return scan("pafybe", flat_residuals({"pafybe": lambda: flat}, (),
                                         (len(r),) * 3, d), all_failures)


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
    return _trusted(Bialgebra, palg,
                    *coboundary_delta(palg, special_case_rpair(r, case)))


def special_case_conditions(palg: PreAlgebra, r, case,
                            all_failures=False) -> CheckReport:
    """The per-case condition sets, each equation reported individually,
    jointly equivalent to the specialized candidate passing
    verify_bialgebra: the coboundary conditions at special_case_rpair(r,
    case), relabelled by SPECIAL_CASE_LABELS."""
    c = _require_base("special_case_conditions", palg)
    if case not in SPECIAL_CASES:
        raise PreconditionError("special_case_conditions: unknown case %r"
                                % (case,))
    require_square("special_case_conditions", "r", r, palg.dimension)
    report = scan("special-case-" + case, _coboundary_residuals(
        c, special_case_rpair(r, case)), all_failures)
    if report.passed:
        return report
    labels = SPECIAL_CASE_LABELS[case]
    failures = tuple((labels[label][0], idx,
                      res if labels[label][1] > 0 else mat_neg(res))
                     for label, idx, res in report.failures)
    return CheckReport(False, report.identity_name, witness=failures[0],
                       failures=failures)
