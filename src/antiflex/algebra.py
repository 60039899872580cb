"""Algebras and pre-algebras as structure constants, and their identity checkers.

An `Algebra` stores one bilinear product as a rank-3 tensor c with
e_i * e_j = sum_k c[i][j][k] e_k.  A `PreAlgebra` stores two products
(written `prec` for x < y and `succ` for x > y below, after the usual
half-shuffle notation) whose sum is the underlying single product.

Every identity the package checks is multilinear, so it holds on all
elements exactly when it holds on basis tuples.  Each identity of
`IDENTITIES` is also written in `COMPOSITIONS` as a signed sum of two-product
compositions at permuted arguments, and `basis_residuals` evaluates those
straight from the structure constants at any basis triple.

Every checker of the package is one `scan` of a lazy stream of
(label, index tuple, residual) in lexicographic order of the index tuples:
the first nonzero residual is the witness, and unless every failure is
asked for, nothing after it is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .linalg import (
    ZERO, Tensor3, Vector,
    contract_product, t3_add, t3_sub, vec_add, vec_sub, dot,
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


@dataclass(frozen=True)
class Algebra:
    dimension: int
    product: Tensor3
    basis_names: tuple = ()

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
    exactly zero."""
    if res and isinstance(res[0], (list, tuple)):
        return all(map(_is_zero, res))
    return not any(res)


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


def basis_residuals(structure):
    """The function (label, (i, j, k)) -> residual of the identity `label`
    of COMPOSITIONS at the basis triple (e_i, e_j, e_k), read straight from
    the structure constants.

    The nonzero coordinates of a product e_u c e_v, and of a composition
    entry (e_u c1 e_v) c2 e_w or e_u c1 (e_v c2 e_w), are computed on first
    use and then kept by the returned function alone: each is computed once
    per check and freed with the function.
    """
    d = structure.dimension
    if isinstance(structure, Algebra):
        dense = {"c": lambda u, v: structure.product[u][v]}
    else:
        prec, succ = structure.prec, structure.succ
        dense = {"prec": lambda u, v: prec[u][v],
                 "succ": lambda u, v: succ[u][v],
                 "dot": lambda u, v: [a + b for a, b in zip(prec[u][v],
                                                            succ[u][v])]}
    rows = {name: [None] * (d * d) for name in dense}
    tables = {}     # (shape, c1, c2) -> its entries, flat, None until used
    compiled = {}   # label -> its terms with their tables

    def row(name, u, v):
        at = u * d + v
        nz = rows[name][at]
        if nz is None:
            nz = rows[name][at] = [(k, x) for k, x in
                                   enumerate(dense[name](u, v)) if x]
        return nz

    def compile_terms(label):
        terms = compiled[label] = []
        for sign, key, order in _TERMS[label]:
            if key not in tables:
                tables[key] = [None] * (d * d * d)
            terms.append((sign, key[0] == "L", key[1], key[2], tables[key])
                         + order)
        return terms

    def evaluate(label, idx):
        out = [ZERO] * d
        for sign, left, c1, c2, table, a, b, c in \
                compiled.get(label) or compile_terms(label):
            u, v, w = idx[a], idx[b], idx[c]
            at = (u * d + v) * d + w
            e = table[at]
            if e is None:
                acc = {}
                if left:        # (e_u c1 e_v) c2 e_w
                    for p, x in row(c1, u, v):
                        for q, y in row(c2, p, w):
                            acc[q] = acc.get(q, ZERO) + x * y
                else:           # e_u c1 (e_v c2 e_w)
                    for p, x in row(c2, v, w):
                        for q, y in row(c1, u, p):
                            acc[q] = acc.get(q, ZERO) + x * y
                # vanishing entries share one empty tuple, so a mostly
                # zero table costs one pointer per entry
                e = table[at] = [(q, x) for q, x in acc.items() if x] or ()
            if sign > 0:
                for q, x in e:
                    out[q] += x
            else:
                for q, x in e:
                    out[q] -= x
        return out

    return evaluate


def _kind_labels(subject, kind):
    """The identity labels of `kind`, which must suit the subject."""
    if isinstance(subject, Algebra):
        if kind not in ALGEBRA_KINDS:
            raise PreconditionError("kind %r needs a pre-algebra subject" % (kind,))
    elif isinstance(subject, PreAlgebra):
        if kind not in PREALGEBRA_KINDS:
            raise PreconditionError("kind %r needs a single-product algebra" % (kind,))
    else:
        raise TypeError("subject must be an Algebra or PreAlgebra")
    return KIND_IDENTITIES[kind]


def identity_residuals(subject, kind, x, y, z):
    """Residuals of the `kind` identities evaluated on one element triple,
    through the element-level IDENTITIES: the reference that the
    random-element oracle evaluates apart from basis_residuals."""
    return [(label, IDENTITIES[label](subject, x, y, z))
            for label in _kind_labels(subject, kind)]


def triple_residuals(evaluate, labels, n):
    """(label, (i, j, k), residual) of each label at every basis triple of
    an n-dimensional structure, given its basis_residuals."""
    for idx in product(range(n), repeat=3):
        for label in labels:
            yield label, idx, evaluate(label, idx)


def check_identities(subject, kind, all_failures=False) -> CheckReport:
    """Check the defining identities of `kind` over all basis triples."""
    labels = _kind_labels(subject, kind)
    return scan(kind, triple_residuals(basis_residuals(subject), labels,
                                       subject.dimension), all_failures)


# ---------------------------------------------------------------------------
# derived structures
# ---------------------------------------------------------------------------

def underlying_algebra(palg: PreAlgebra) -> Algebra:
    """The single-product algebra with x.y = x<y + x>y."""
    return Algebra(palg.dimension, t3_add(palg.prec, palg.succ),
                   palg.basis_names)


def derived_products(palg: PreAlgebra, kind) -> Algebra:
    """kind='lie-admissible': x o y = x>y - y<x;
    kind='commutator-of-underlying': [x,y] = x.y - y.x."""
    n = palg.dimension
    if kind == "lie-admissible":
        flipped = [[palg.prec[j][i] for j in range(n)] for i in range(n)]
        return Algebra(n, t3_sub(palg.succ, flipped), palg.basis_names)
    if kind == "commutator-of-underlying":
        dot = underlying_algebra(palg).product
        flipped = [[dot[j][i] for j in range(n)] for i in range(n)]
        return Algebra(n, t3_sub(dot, flipped), palg.basis_names)
    raise ValueError("derived_products: unknown kind %r" % (kind,))


FROM_ASSOCIATIVE_VARIANTS = ("succ-left", "succ-right", "prec-left", "prec-right")


def from_associative(assoc: Algebra, variant) -> PreAlgebra:
    """One-sided splittings of an associative product: one of the two
    half-products carries the full product (possibly with flipped argument
    order) and the other is zero."""
    if variant not in FROM_ASSOCIATIVE_VARIANTS:
        raise ValueError("from_associative: unknown variant %r" % (variant,))
    rep = check_identities(assoc, "associative")
    if not rep.passed:
        raise PreconditionError("from_associative: input is not associative; "
                                "witness %r" % (rep.witness,))
    n = assoc.dimension
    c = assoc.product
    flipped = [[c[j][i] for j in range(n)] for i in range(n)]
    zero = zeros_t3(n)
    if variant == "succ-left":
        return PreAlgebra(n, zero, c, assoc.basis_names)
    if variant == "succ-right":
        return PreAlgebra(n, zero, flipped, assoc.basis_names)
    if variant == "prec-left":
        return PreAlgebra(n, c, zero, assoc.basis_names)
    return PreAlgebra(n, flipped, zero, assoc.basis_names)


def check_cyclic_form(alg: Algebra, omega, all_failures=False) -> CheckReport:
    """Check w(x*y,z) + w(y*z,x) + w(z*x,y) = 0 over all basis triples.

    With w(u, v) = u^T omega v, w(e_i*e_j, e_k) is the dot product of the
    product row c[i][j] with column k of omega, taken over the nonzeros of
    that column alone.
    """
    n = alg.dimension
    require_square("check_cyclic_form", "omega", omega, n)
    c = alg.product
    cols = [[(p, x) for p, x in enumerate(col) if x]
            for col in transpose(omega)]

    def w(row, k):
        acc = ZERO
        for p, x in cols[k]:
            if row[p]:
                acc += row[p] * x
        return acc

    return scan("cyclic-form", (
        ("cyclic-form", (i, j, k), [w(c[i][j], k) + w(c[j][k], i)
                                    + w(c[k][i], j)])
        for i, j, k in product(range(n), repeat=3)), all_failures)


def induce_pre_from_form(alg: Algebra, omega) -> PreAlgebra:
    """Split an anti-flexible product through an invertible bilinear form.

    omega is the Gram matrix of a nondegenerate form satisfying the cyclic
    condition w(x*y,z)+w(y*z,x)+w(z*x,y)=0.  The two half-products are the
    unique solutions of w(x<y, z) = w(x, y*z) and w(x>y, z) = w(y, z*x).
    """
    rep = check_identities(alg, "anti-flexible")
    if not rep.passed:
        raise PreconditionError("induce_pre_from_form: base algebra fails the "
                                "anti-flexible check; witness %r" % (rep.witness,))
    cyc = check_cyclic_form(alg, omega)
    if not cyc.passed:
        raise PreconditionError("induce_pre_from_form: form violates the cyclic "
                                "condition; witness %r" % (cyc.witness,))
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
    return PreAlgebra(n, prec, succ, alg.basis_names)
