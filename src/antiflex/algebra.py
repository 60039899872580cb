"""Algebras and pre-algebras as structure constants, and their identity checkers.

An `Algebra` stores one bilinear product as a rank-3 tensor c with
e_i * e_j = sum_k c[i][j][k] e_k.  A `PreAlgebra` stores two products
(`prec` for x < y and `succ` for x > y, after the half-shuffle notation)
whose sum is the underlying single product.

Every identity the package checks is multilinear, so it holds on all
elements exactly when it holds on basis tuples.  Each identity of
`IDENTITIES` is also written in `COMPOSITIONS` as a signed sum of
two-product compositions, from which `basis_residuals` lists the nonzero
entries of its residual tensor (see there).  Every identity table of the
package (the identities, the bimodule blocks, the matched-pair and
bialgebra conditions, the co-identities) is rows on one reader,
`table_residuals`; every flat int residual of the other kernels (placed
products, coboundary families, the O-operator identity) reaches its report
through one reader, `flat_residuals`.  Every checker is one `scan` of a
lazy stream of (label, index tuple, residual) in lexicographic order: the
first nonzero residual is the witness, and unless every failure is asked
for, the stream is read no further.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from math import gcd, lcm, prod
from typing import Optional

from .linalg import (
    ZERO, Tensor3, Vector,
    contract_product, t3_sub, vec_add, vec_sub, dot,
    zeros_t3, mat_inverse, mat_vec, transpose, SingularMatrixError,
)


class PreconditionError(ValueError):
    """An operation was handed an input violating its documented contract."""


def require_tensor(caller, field, t, shape):
    """Raise PreconditionError, naming the field and the index, unless t is
    a tensor of the given three extents with entries ints and Fractions
    (bools and floats are not)."""
    def extent(block, at, n):
        if not isinstance(block, (list, tuple)) or len(block) != n:
            raise PreconditionError("%s: %s%s must be a list of %d entries"
                                    % (caller, field, at, n))
    n1, n2, n3 = shape
    extent(t, "", n1)
    for i, plane in enumerate(t):
        extent(plane, "[%d]" % i, n2)
        for j, row in enumerate(plane):
            extent(row, "[%d][%d]" % (i, j), n3)
            for k, x in enumerate(row):
                if type(x) is not Fraction and type(x) is not int:
                    raise PreconditionError(
                        "%s: %s[%d][%d][%d] is %r, not an int or Fraction"
                        % (caller, field, i, j, k, x))


def _require_actions(caller, obj, fields, acting, space):
    """Store each action family named in fields of the frozen dataclass obj
    as a tuple, after checking that it holds one space x space matrix of
    ints and Fractions per basis element of the acting algebra, whose
    dimension is acting."""
    for name in fields:
        maps = getattr(obj, name)
        require_tensor(caller, name, maps, (acting, space, space))
        object.__setattr__(obj, name, tuple(maps))


def _require_kind(caller, obj, *classes):
    """Raise PreconditionError, naming the caller, unless obj is an
    instance of one of the classes."""
    if not isinstance(obj, classes):
        raise PreconditionError("%s: expected %s, got %s" % (
            caller, " or ".join(c.__name__ for c in classes),
            type(obj).__name__))


def _trusted(cls, *values, tensors=None):
    """The frozen dataclass cls with these field values, unchecked (no
    __post_init__), for structures derived from checked inputs.  Action
    families are given as tuples; a function value builds its field when
    first read (_built); tensors are kept as its structure_tensors."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        obj.__dict__["_" + name if callable(value) else name] = value
    if tensors:
        obj.__dict__["_tensors"] = tensors
    return obj


def _built(self, name):
    """The __getattr__ of the structures: a field that _trusted was given
    a function for, built on its first read."""
    build = self.__dict__.pop("_" + name, None)
    if build is None:
        raise AttributeError(name)
    value = self.__dict__[name] = build()
    return value


@dataclass(frozen=True)
class Algebra:
    dimension: int
    product: Tensor3
    basis_names: tuple = ()

    __getattr__ = _built

    def __post_init__(self):
        require_tensor("Algebra", "product", self.product,
                       (self.dimension,) * 3)
        if not self.basis_names:
            object.__setattr__(self, "basis_names",
                               tuple("e%d" % (i + 1) for i in range(self.dimension)))

    def mul(self, x: Vector, y: Vector) -> Vector:
        return contract_product(self.product, x, y)


@dataclass(frozen=True)
class PreAlgebra:
    dimension: int
    prec: Tensor3
    succ: Tensor3
    basis_names: tuple = ()

    __getattr__ = _built

    def __post_init__(self):
        for name in ("prec", "succ"):
            require_tensor("PreAlgebra", name, getattr(self, name),
                           (self.dimension,) * 3)
        if not self.basis_names:
            object.__setattr__(self, "basis_names",
                               tuple("e%d" % (i + 1) for i in range(self.dimension)))

    def mul_prec(self, x, y):
        return contract_product(self.prec, x, y)

    def mul_succ(self, x, y):
        return contract_product(self.succ, x, y)

    def mul_dot(self, x, y):
        return vec_add(self.mul_prec(x, y), self.mul_succ(x, y))


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    identity_name: str
    witness: Optional[tuple] = None  # (identity label, index tuple, residual)
    failures: tuple = ()

    def __bool__(self):
        return self.passed


def _is_zero(res):
    """Whether a residual (a list of scalars, or nested lists of them) is
    exactly zero.  list.count matches the shared ZERO by identity, at C
    speed, and compares only the other entries with 0."""
    if res and isinstance(res[0], (list, tuple)):
        return all(map(_is_zero, res))
    return res.count(ZERO) == len(res)


def scan(name, residuals, all_failures=False) -> CheckReport:
    """The report of a check from its lazy stream of (label, index tuple,
    residual): the first nonzero residual is the witness, and the stream is
    read past it only to collect every failure when all_failures is set."""
    failures = []
    for failure in residuals:
        if not _is_zero(failure[2]):
            failures.append(failure)
            if not all_failures:
                break
    if not failures:
        return CheckReport(True, name)
    return CheckReport(False, name, witness=failures[0],
                       failures=tuple(failures) if all_failures
                       else (failures[0],))


def require_pass(report, message):
    """Raise PreconditionError, the message followed by the witness, unless
    the report passed."""
    if not report.passed:
        raise PreconditionError("%s; witness %r" % (message, report.witness))


def require_matrix(caller, what, m, rows, cols):
    """Raise PreconditionError unless the matrix m is rows x cols with
    entries ints and Fractions (bools and floats are not), naming the index
    of a bad entry."""
    if len(m) != rows or any(len(row) != cols for row in m):
        raise PreconditionError("%s: %s must be %d x %d"
                                % (caller, what, rows, cols))
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            if type(x) is not Fraction and type(x) is not int:
                raise PreconditionError(
                    "%s: %s[%d][%d] is %r, not an int or Fraction"
                    % (caller, what, i, j, x))


def require_square(caller, what, m, n):
    """require_matrix for an n x n matrix."""
    require_matrix(caller, what, m, n, n)


# ---------------------------------------------------------------------------
# triple products
# ---------------------------------------------------------------------------

def triple(alg: Algebra, x, y, z):
    """Associator (x,y,z) = (x*y)*z - x*(y*z)."""
    return vec_sub(alg.mul(alg.mul(x, y), z), alg.mul(x, alg.mul(y, z)))


def pre_triple(palg: PreAlgebra, x, y, z, kind):
    """The three splitting triples.

    kind='m': (x>y)<z - x>(y<z)
    kind='l': (x.y)>z - x>(y>z)
    kind='r': (x<y)<z - x<(y.z)
    """
    if kind == "m":
        return vec_sub(palg.mul_prec(palg.mul_succ(x, y), z),
                       palg.mul_succ(x, palg.mul_prec(y, z)))
    if kind == "l":
        return vec_sub(palg.mul_succ(palg.mul_dot(x, y), z),
                       palg.mul_succ(x, palg.mul_succ(y, z)))
    if kind == "r":
        return vec_sub(palg.mul_prec(palg.mul_prec(x, y), z),
                       palg.mul_prec(x, palg.mul_dot(y, z)))
    raise ValueError("pre_triple: kind must be 'm', 'l' or 'r'")


# ---------------------------------------------------------------------------
# identity checking
# ---------------------------------------------------------------------------

ALGEBRA_KINDS = ("associative", "anti-flexible")
PREALGEBRA_KINDS = ("pre-anti-flexible", "dendriform")


# the element-level residual of each identity, by label
IDENTITIES = {
    "associativity": lambda alg, x, y, z: triple(alg, x, y, z),
    "anti-flexible": lambda alg, x, y, z: vec_sub(triple(alg, x, y, z),
                                                  triple(alg, z, y, x)),
    "pre-anti-flexible-m": lambda p, x, y, z: vec_sub(
        pre_triple(p, x, y, z, "m"), pre_triple(p, z, y, x, "m")),
    "pre-anti-flexible-lr": lambda p, x, y, z: vec_sub(
        pre_triple(p, x, y, z, "l"), pre_triple(p, z, y, x, "r")),
    "dendriform-m": lambda p, x, y, z: pre_triple(p, x, y, z, "m"),
    "dendriform-l": lambda p, x, y, z: pre_triple(p, x, y, z, "l"),
    "dendriform-r": lambda p, x, y, z: pre_triple(p, x, y, z, "r"),
}

# the identities that define each kind, in checking order
KIND_IDENTITIES = {
    "associative": ("associativity",),
    "anti-flexible": ("anti-flexible",),
    "pre-anti-flexible": ("pre-anti-flexible-m", "pre-anti-flexible-lr"),
    "dendriform": ("dendriform-m", "dendriform-l", "dendriform-r"),
}


# Each identity of IDENTITIES as signed compositions of two products:
# (sign, shape, c1, c2, order), where shape "L" is (u c1 v) c2 w, shape "R"
# is u c1 (v c2 w), and order names the arguments u, v, w among x, y, z.
# The products are "c" of an Algebra and "prec", "succ" and their sum "dot"
# of a PreAlgebra.
COMPOSITIONS = {
    "associativity": ((1, "L", "c", "c", "xyz"), (-1, "R", "c", "c", "xyz")),
    "anti-flexible": ((1, "L", "c", "c", "xyz"), (-1, "R", "c", "c", "xyz"),
                      (-1, "L", "c", "c", "zyx"), (1, "R", "c", "c", "zyx")),
    "pre-anti-flexible-m": (
        (1, "L", "succ", "prec", "xyz"), (-1, "R", "succ", "prec", "xyz"),
        (-1, "L", "succ", "prec", "zyx"), (1, "R", "succ", "prec", "zyx")),
    "pre-anti-flexible-lr": (
        (1, "L", "dot", "succ", "xyz"), (-1, "R", "succ", "succ", "xyz"),
        (-1, "L", "prec", "prec", "zyx"), (1, "R", "prec", "dot", "zyx")),
    "dendriform-m": ((1, "L", "succ", "prec", "xyz"),
                     (-1, "R", "succ", "prec", "xyz")),
    "dendriform-l": ((1, "L", "dot", "succ", "xyz"),
                     (-1, "R", "succ", "succ", "xyz")),
    "dendriform-r": ((1, "L", "prec", "prec", "xyz"),
                     (-1, "R", "prec", "dot", "xyz")),
}

# the compositions with each order as positions in the index triple
_TERMS = {label: tuple((sign, (shape, c1, c2),
                        tuple("xyz".index(ch) for ch in order))
                       for sign, shape, c1, c2, order in terms)
          for label, terms in COMPOSITIONS.items()}


def _lcd(entries):
    """The least common denominator of ints and Fractions: the least
    positive D with D * x an int for every x."""
    return lcm(*{x.denominator for x in entries})


def _scaled(pairs, d):
    """The pairs (key, x) with each x scaled to the int d * x, for d a
    multiple of every denominator."""
    return [(key, x.numerator * (d // x.denominator)) for key, x in pairs]


StructureTensors = namedtuple("StructureTensors", "rows scale")


def structure_tensors(structure) -> StructureTensors:
    """The products of an algebra ("c"), of a pre-algebra (prec, succ and
    dot = prec + succ), or of a bimodule or matched pair (its base's, and
    each action family F named after it: F(e_a) v_b at [a][b] for a left
    family, whose name starts with "l", F(e_b) v_a for a right one, so
    both are c on the regular bimodule) under D, the lcd of the structure
    constants, as sparse int rows: rows[op][a][b] lists the pairs
    (k, D * c[a][b][k]) with a nonzero coefficient, and scale is D.
    Computed once and kept on the structure."""
    c = structure.__dict__.get("_tensors")
    if c is None:
        c = structure.__dict__["_tensors"] = _scanned(structure)
    return c


def _products(s):
    """The (name, dense product) pairs of structure_tensors."""
    if isinstance(s, Algebra):
        return [("c", s.product)]
    if isinstance(s, PreAlgebra):
        return [("prec", s.prec), ("succ", s.succ)]
    out = _products(s.base) if hasattr(s, "base") else []
    for name in list(s.__dataclass_fields__)[2:]:
        t = [list(zip(*m)) for m in getattr(s, name)]
        out.append((name, t if name[0] == "l" else list(zip(*t))))
    return out


def _scanned(structure) -> StructureTensors:
    """structure_tensors, read off the dense fields."""
    rows = {op: [[[(k, x) for k, x in enumerate(row) if x] for row in plane]
                 for plane in t] for op, t in _products(structure)}
    d = _lcd(x for t in rows.values() for plane in t for row in plane
             for _, x in row)
    return _tensors({op: [[_scaled(row, d) for row in plane] for plane in t]
                     for op, t in rows.items()}, d)


def _tensors(rows, d) -> StructureTensors:
    """StructureTensors(rows, d), with dot where rows have prec."""
    if "prec" in rows:
        rows["dot"] = [[_row_sum(p, s) for p, s in zip(pp, ps)]
                       for pp, ps in zip(rows["prec"], rows["succ"])]
    return StructureTensors(rows, d)


def _dense(rows, d, n):
    """The dense tensor, n coordinates a row, of int rows under d."""
    def vec(row):
        v = [ZERO] * n
        for k, x in row:
            v[k] = Fraction(x, d)
        return v
    return [[vec(row) for row in plane] for plane in rows]


def _row_sum(p, s):
    """The sum of two sparse int rows."""
    if not p or not s:
        return p or s
    acc = dict(p)
    for k, x in s:
        acc[k] = acc.get(k, 0) + x
    return [(k, x) for k, x in sorted(acc.items()) if x]


def _triple(t, n):
    """The index triple (i, j, k) at flat position t = (i * n + j) * n + k."""
    ij, k = divmod(t, n)
    return (*divmod(ij, n), k)


def basis_residuals(structure):
    """The function label -> the nonzero entries (i, j, k, q, x) of the
    residual tensor of the identity `label` of COMPOSITIONS: coordinate q
    of the identity at (e_i, e_j, e_k) is x, and every entry not listed is
    exactly zero.  On first use of a label its whole tensor is built in
    ints from the support alone: each composition is enumerated over the
    nonzero rows of structure_tensors (under D), and every nonzero entry
    is divided back once, as Fraction(v, D**2), and kept with the
    evaluator.
    """
    d = structure.dimension
    c = structure_tensors(structure)
    tensors = {}    # label -> its nonzero entries
    # each product's nonzero rows (u, v, row), and the same rows listed by
    # u as (v, row) and by v as (u, row)
    nonzero, by_first, by_second = {}, {}, {}
    for op, t in c.rows.items():
        nonzero[op] = [(u, v, row) for u, plane in enumerate(t)
                       for v, row in enumerate(plane) if row]
        by_first[op] = [[] for _ in range(d)]
        by_second[op] = [[] for _ in range(d)]
        for u, v, row in nonzero[op]:
            by_first[op][u].append((v, row))
            by_second[op][v].append((u, row))

    def tensor(label):
        if label in tensors:
            return tensors[label]
        acc = {}    # flat coordinate ((i * d + j) * d + k) * d + q -> int
        strides = (d ** 3, d * d, d)
        for sign, (shape, c1, c2), (a, b, e) in _TERMS[label]:
            su, sv, sw = strides[a], strides[b], strides[e]
            if shape == "L":    # (e_u c1 e_v) c2 e_w: rows of c2 by u c1 v
                outer, s1, s2 = nonzero[c1], su, sv
                inner, s3 = by_first[c2], sw
            else:               # e_u c1 (e_v c2 e_w): rows of c1 by v c2 w
                outer, s1, s2 = nonzero[c2], sv, sw
                inner, s3 = by_second[c1], su
            for s, t, row in outer:
                base0 = s * s1 + t * s2
                for p, x in row:
                    if sign < 0:
                        x = -x
                    for r, row2 in inner[p]:
                        base = base0 + r * s3
                        for q, y in row2:
                            at = base + q
                            acc[at] = acc.get(at, 0) + x * y
        scale = c.scale * c.scale
        out = tensors[label] = []
        for at, v in acc.items():
            if v:
                t, q = divmod(at, d)
                out.append((*_triple(t, d), q, Fraction(v, scale)))
        return out

    return tensor


def _nested(flat, shape):
    """A flat list in row-major order as nested lists of the given shape."""
    for n in reversed(shape[1:]):
        flat = [flat[s:s + n] for s in range(0, len(flat), n)]
    return flat


def _divided(flat, d, shape):
    """The tensor flat / d as nested lists of the given shape (row-major),
    with the shared ZERO at its zeros."""
    return _nested([Fraction(v, d) if v else ZERO for v in flat], shape)


def flat_residuals(families, index, shape, d):
    """(label, index tuple, residual) of each family at each index tuple
    where its block is nonzero, in scan order (index tuple, then family),
    divided back by d.  A family is a flat int tensor over the index
    extents index and then the residual extents shape, built by
    families[label]() on its first read."""
    built, size = {}, prod(shape)
    for at, idx in enumerate(product(*map(range, index))):
        for label, build in families.items():
            if label not in built:
                flat = build()
                built[label] = flat if any(flat) else ()
            block = built[label][at * size:(at + 1) * size]
            if any(block):
                yield label, idx, _divided(block, d, shape)


def table_residuals(tensor, rows, args, coords, index, axes):
    """(label, index tuple, residual) of each row of an identity table
    where its residual is nonzero, in scan order (index tuple, then row),
    given the basis_residuals of a structure.

    A row is (label, identity, letters, sign).  Its first three letters
    range over the basis indices args[letter] of the identity's arguments
    and its fourth over those coords[letter] of its coordinate, a letter's
    value being its position in its range: at values v1..v4 the row is
    sign times coordinate C[v4] of the identity at the basis triple
    (A1[v1], A2[v2], A3[v3]), for A1..A3 and C the four ranges.  index
    names the letters of the index tuple and axes those of the residual.
    A row's four letters are distinct, so each nonzero entry of the
    identity in its ranges is one entry of one residual.
    """
    shape = [len(coords[ch] if ch in coords else args[ch]) for ch in axes]
    found = {}      # (index tuple, row number) -> its residual, flat
    for r, (_, identity, letters, sign) in enumerate(rows):
        a, b, e, k = letters
        (o0, h0), (o1, h1), (o2, h2), (o3, h3) = [
            (at.start, at.stop)
            for at in (args[a], args[b], args[e], coords[k])]
        pick = [letters.index(ch) for ch in index]
        place = [(letters.index(ch), prod(shape[m + 1:]))
                 for m, ch in enumerate(axes)]
        for u, v, w, q, x in tensor(identity):
            if o0 <= u < h0 and o1 <= v < h1 and o2 <= w < h2 \
                    and o3 <= q < h3:
                at = (u - o0, v - o1, w - o2, q - o3)
                key = (tuple([at[p] for p in pick]), r)
                res = found.get(key)
                if res is None:
                    res = found[key] = [ZERO] * prod(shape)
                res[sum([at[p] * s for p, s in place])] = \
                    x if sign > 0 else -x
    for idx, r in sorted(found):
        yield rows[r][0], idx, _nested(found[idx, r], shape)


def _kind_labels(subject, kind):
    """The identity labels of `kind`, which must suit the subject."""
    _require_kind("check_identities", subject, Algebra, PreAlgebra)
    if isinstance(subject, Algebra):
        if kind not in ALGEBRA_KINDS:
            raise PreconditionError("kind %r needs a pre-algebra subject" % (kind,))
    elif kind not in PREALGEBRA_KINDS:
        raise PreconditionError("kind %r needs a single-product algebra" % (kind,))
    return KIND_IDENTITIES[kind]


def identity_residuals(subject, kind, x, y, z):
    """Residuals of the `kind` identities evaluated on one element triple,
    through the element-level IDENTITIES: the reference that the
    random-element oracle evaluates apart from basis_residuals."""
    return [(label, IDENTITIES[label](subject, x, y, z))
            for label in _kind_labels(subject, kind)]


def triple_residuals(tensor, labels, n):
    """(label, (i, j, k), residual) of each label at every basis triple of
    an n-dimensional structure whose residual is nonzero, in scan order,
    given its basis_residuals: one table row per label, read at its own
    arguments and coordinate."""
    at = dict.fromkeys("ijkq", range(n))
    return table_residuals(tensor, [(label, label, "ijkq", 1)
                                    for label in labels], at, at, "ijk", "q")


def check_identities(subject, kind, all_failures=False) -> CheckReport:
    """Check the defining identities of `kind` over all basis triples."""
    labels = _kind_labels(subject, kind)
    return scan(kind, triple_residuals(basis_residuals(subject),
                                       labels, subject.dimension),
                all_failures)


# ---------------------------------------------------------------------------
# derived structures
# ---------------------------------------------------------------------------

def underlying_algebra(palg: PreAlgebra) -> Algebra:
    """The single-product algebra with x.y = x<y + x>y: the dot rows of
    palg, brought to their own lcd."""
    c = structure_tensors(palg)
    rows = c.rows["dot"]
    g = gcd(c.scale, *(x for plane in rows for row in plane for _, x in row))
    if g > 1:
        rows = [[[(k, x // g) for k, x in row] for row in plane]
                for plane in rows]
    d = c.scale // g
    return _trusted(Algebra, palg.dimension,
                    partial(_dense, rows, d, palg.dimension), palg.basis_names,
                    tensors=StructureTensors({"c": rows}, d))


def derived_products(palg: PreAlgebra, kind) -> Algebra:
    """kind='lie-admissible': x o y = x>y - y<x;
    kind='commutator-of-underlying': [x,y] = x.y - y.x."""
    n = palg.dimension
    if kind == "lie-admissible":
        return Algebra(n, t3_sub(palg.succ, transpose(palg.prec)),
                       palg.basis_names)
    if kind == "commutator-of-underlying":
        dot = underlying_algebra(palg).product
        return Algebra(n, t3_sub(dot, transpose(dot)), palg.basis_names)
    raise ValueError("derived_products: unknown kind %r" % (kind,))


FROM_ASSOCIATIVE_VARIANTS = ("succ-left", "succ-right", "prec-left", "prec-right")


def from_associative(assoc: Algebra, variant) -> PreAlgebra:
    """One-sided splittings of an associative product: one of the two
    half-products carries the full product (possibly with flipped argument
    order) and the other is zero."""
    if variant not in FROM_ASSOCIATIVE_VARIANTS:
        raise ValueError("from_associative: unknown variant %r" % (variant,))
    require_pass(check_identities(assoc, "associative"),
                 "from_associative: input is not associative")
    c, zero = assoc.product, zeros_t3(assoc.dimension)
    if variant.endswith("right"):
        c = transpose(c)
    return _trusted(PreAlgebra, assoc.dimension,
                    *((zero, c) if variant[0] == "s" else (c, zero)),
                    assoc.basis_names)


def check_cyclic_form(alg: Algebra, omega, all_failures=False) -> CheckReport:
    """Check w(x*y,z) + w(y*z,x) + w(z*x,y) = 0 over all basis triples."""
    require_square("check_cyclic_form", "omega", omega, alg.dimension)
    return _form_report("cyclic-form", alg, (
        (1, "c", omega, ((2, 1, 0), (1, 0, 2), (0, 2, 1))),), all_failures)


def _form_report(name, structure, terms, all_failures):
    """The check `name` of a sum of terms over all basis triples (i, j, k).
    A term (sign, op, omega, places) is sign w(e_a op e_b, e_c), with
    w(u, v) = u^T omega v, at each place (pa, pb, pc): at the flat position
    (i * n + j) * n + k = a n**pa + b n**pb + c n**pc.  It is added in
    ints (the products under their lcd D_c, the forms under theirs, D_w);
    only the nonzero sums are divided back, by D_c * D_w, and scanned.
    """
    n = structure.dimension
    c = structure_tensors(structure)
    forms = [[[(k, y) for k, y in enumerate(row) if y] for row in term[2]]
             for term in terms]
    d = _lcd(y for form in forms for row in form for _, y in row)
    acc = {}    # flat position (i * n + j) * n + k -> int
    for (sign, op, _, places), form in zip(terms, forms):
        form = [_scaled(row, d) for row in form]
        strides = [(n ** pa, n ** pb, n ** pc) for pa, pb, pc in places]
        for a, plane in enumerate(c.rows[op]):
            for b, row in enumerate(plane):
                for p, x in row:
                    x *= sign
                    for k, y in form[p]:
                        v = x * y
                        for sa, sb, sc in strides:
                            at = a * sa + b * sb + k * sc
                            acc[at] = acc.get(at, 0) + v
    scale = c.scale * d
    return scan(name, ((name, _triple(at, n), [Fraction(v, scale)])
                       for at, v in sorted(acc.items()) if v), all_failures)


def induce_pre_from_form(alg: Algebra, omega) -> PreAlgebra:
    """Split an anti-flexible product through an invertible bilinear form.

    omega is the Gram matrix of a nondegenerate form satisfying the cyclic
    condition w(x*y,z)+w(y*z,x)+w(z*x,y)=0.  The two half-products are the
    unique solutions of w(x<y, z) = w(x, y*z) and w(x>y, z) = w(y, z*x).
    """
    require_pass(check_identities(alg, "anti-flexible"),
                 "induce_pre_from_form: base algebra fails the anti-flexible "
                 "check")
    require_pass(check_cyclic_form(alg, omega),
                 "induce_pre_from_form: form violates the cyclic condition")
    n = alg.dimension
    try:
        # w(v, -) as a row functional is v^T omega; solving omega^T u = rhs
        # recovers u from the functional w(u, -).
        omega_t_inv = mat_inverse(transpose(omega))
    except SingularMatrixError as exc:
        raise SingularMatrixError("induce_pre_from_form: degenerate form") from exc
    # with x = e_i and y = e_j, w(x, y*e_k) = omega[i] . c[j][k] and
    # w(y, e_k*x) = omega[j] . c[k][i]
    c = alg.product
    prec = zeros_t3(n)
    succ = zeros_t3(n)
    for i in range(n):
        for j in range(n):
            rhs_prec = [dot(omega[i], c[j][k]) for k in range(n)]
            rhs_succ = [dot(omega[j], c[k][i]) for k in range(n)]
            prec[i][j] = mat_vec(omega_t_inv, rhs_prec)
            succ[i][j] = mat_vec(omega_t_inv, rhs_succ)
    return _trusted(PreAlgebra, n, prec, succ, alg.basis_names)
