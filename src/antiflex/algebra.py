"""Algebras and pre-algebras as structure constants, and their identity checkers.

An `Algebra` stores one bilinear product as a rank-3 tensor c with
e_i * e_j = sum_k c[i][j][k] e_k.  A `PreAlgebra` stores two products
(written `prec` for x < y and `succ` for x > y below, after the usual
half-shuffle notation) whose sum is the underlying single product.

The identity checkers iterate over all basis index tuples; since every
identity involved is multilinear, vanishing on basis tuples is equivalent
to vanishing on all elements.  Witnesses are reported for the first failing
tuple in lexicographic order so they are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .linalg import (
    Tensor3, Vector,
    contract_product, t3_add, t3_sub, vec_add, vec_sub, vec_is_zero, dot,
    basis_vec, zeros_t3, mat_inverse, mat_vec, transpose, SingularMatrixError,
)


class PreconditionError(ValueError):
    """An operation was handed an input violating its documented contract."""


@dataclass(frozen=True)
class Algebra:
    dimension: int
    product: Tensor3
    basis_names: tuple = ()

    def __post_init__(self):
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


def _report(name, failures, all_failures=False):
    if not failures:
        return CheckReport(True, name)
    return CheckReport(False, name, witness=failures[0],
                       failures=tuple(failures) if all_failures else (failures[0],))


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


def identity_residuals(subject, kind, x, y, z):
    """Residuals of the `kind` identities evaluated on one element triple.

    Shared by the basis checker and the random-element oracle so that both
    evaluate literally the same expressions.
    """
    if isinstance(subject, Algebra):
        if kind not in ALGEBRA_KINDS:
            raise PreconditionError("kind %r needs a pre-algebra subject" % (kind,))
    elif isinstance(subject, PreAlgebra):
        if kind not in PREALGEBRA_KINDS:
            raise PreconditionError("kind %r needs a single-product algebra" % (kind,))
    else:
        raise TypeError("subject must be an Algebra or PreAlgebra")
    return [(label, IDENTITIES[label](subject, x, y, z))
            for label in KIND_IDENTITIES[kind]]


def check_identities(subject, kind, all_failures=False) -> CheckReport:
    """Check the defining identities of `kind` over all basis triples."""
    n = subject.dimension
    basis = [basis_vec(n, i) for i in range(n)]
    failures = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for label, res in identity_residuals(
                        subject, kind, basis[i], basis[j], basis[k]):
                    if not vec_is_zero(res):
                        failures.append((label, (i, j, k), res))
                        if not all_failures:
                            return _report(kind, failures, all_failures)
    return _report(kind, failures, all_failures)


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
    product row c[i][j] with column k of omega.
    """
    n = alg.dimension
    if len(omega) != n or any(len(row) != n for row in omega):
        raise PreconditionError("check_cyclic_form: omega must be %d x %d"
                                % (n, n))
    c = alg.product
    cols = transpose(omega)
    failures = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                res = (dot(c[i][j], cols[k]) + dot(c[j][k], cols[i])
                       + dot(c[k][i], cols[j]))
                if res != 0:
                    failures.append(("cyclic-form", (i, j, k), [res]))
                    if not all_failures:
                        return _report("cyclic-form", failures)
    return _report("cyclic-form", failures, all_failures)


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
    basis = [basis_vec(n, i) for i in range(n)]
    prec = zeros_t3(n)
    succ = zeros_t3(n)
    for i in range(n):
        for j in range(n):
            x, y = basis[i], basis[j]
            rhs_prec = [sum(x[p] * omega[p][q] * alg.mul(y, basis[k])[q]
                            for p in range(n) for q in range(n))
                        for k in range(n)]
            rhs_succ = [sum(y[p] * omega[p][q] * alg.mul(basis[k], x)[q]
                            for p in range(n) for q in range(n))
                        for k in range(n)]
            prec[i][j] = mat_vec(omega_t_inv, rhs_prec)
            succ[i][j] = mat_vec(omega_t_inv, rhs_succ)
    return PreAlgebra(n, prec, succ, alg.basis_names)
