"""Comultiplications and pre-anti-flexible bialgebras.

A comultiplication D: A -> A (x) A is stored as a rank-3 tensor d with
D(e_i) = sum_{j,k} d[i][j][k] e_j (x) e_k, so D(e_i) is the matrix d[i].
An operator pair acts by (P (x) Q) M = P M Q^T and the tensor flip sigma is
the matrix transpose.  A bialgebra couples a pre-algebra structure on A
with two comultiplications whose duals give the products on the dual
space; validity is decided through four provably equivalent routes which
the verifier cross-checks against each other.

Every route reads an identity of a double through the pairing of A with
A*.  The two co-identities are coordinates of the pre-anti-flexible
identities of the dual products.  Routes 1-3 read one evaluator of the AF
double of the standard dual pair on A + A*: route 1's four compatibility
conditions are rows of BIALGEBRA_CONDITIONS, each an entry of the double's
anti-flexible identity paired with the basis letter its arguments leave
out; route 2 reads its blocks on mixed triples and route 3 all of it, with
the closedness of the canonical skew form.  Route 4 is that the pre double
of the eight-map dual pair is pre-anti-flexible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import PreAlgebra, CheckReport, PreconditionError, \
    basis_residuals, check_identities, require_tensor, scan, \
    triple_residuals
from .bimodule import act
from .linalg import basis_vec, transpose, mat_mul, mat_sub, mat_vec, \
    vec_neg
from .matched import (
    standard_dual_matched, dual_pre_matched, build_af_double,
    build_pre_double, omega_double_check, _matched_report,
)


@dataclass(frozen=True)
class Bialgebra:
    """A pre-algebra on A together with the two comultiplication tensors
    whose dual maps give the half-products on the dual space."""
    palg: PreAlgebra
    delta_prec: tuple  # Tensor3, d[i] = matrix of the prec comultiplication
    delta_succ: tuple

    def __post_init__(self):
        for name in ("delta_prec", "delta_succ"):
            require_tensor("Bialgebra", name, getattr(self, name),
                           (self.palg.dimension,) * 3)

    @property
    def dimension(self):
        return self.palg.dimension


def dual_products_from_comult(delta_prec, delta_succ) -> PreAlgebra:
    """The half-products on the dual space: <f_i ? f_j, e_k> = <f_i (x) f_j,
    D_?(e_k)>, i.e. plain index transposition of the comultiplication
    tensors."""
    n = len(delta_prec)
    for name, t in (("delta_prec", delta_prec), ("delta_succ", delta_succ)):
        require_tensor("dual_products_from_comult", name, t, (n,) * 3)
    prec = [[[delta_prec[k][i][j] for k in range(n)] for j in range(n)]
            for i in range(n)]
    succ = [[[delta_succ[k][i][j] for k in range(n)] for j in range(n)]
            for i in range(n)]
    return PreAlgebra(n, prec, succ,
                      tuple("f%d" % (i + 1) for i in range(n)))


def comult_from_products(palg: PreAlgebra):
    """The reverse transposition: comultiplication tensors on the dual space
    whose induced products are palg's."""
    n = palg.dimension
    dp = [[[palg.prec[j][k][i] for k in range(n)] for j in range(n)]
          for i in range(n)]
    ds = [[[palg.succ[j][k][i] for k in range(n)] for j in range(n)]
          for i in range(n)]
    return dp, ds


# ---------------------------------------------------------------------------
# the two co-identities
# ---------------------------------------------------------------------------

# each co-identity by the identity of the dual products whose coordinates
# it collects
CO_IDENTITIES = (("co-identity-m", "pre-anti-flexible-m"),
                 ("co-identity-lr", "pre-anti-flexible-lr"))


def check_dual_pre_via_rmatrix(delta_prec, delta_succ,
                               all_failures=False) -> CheckReport:
    """The two co-identities equivalent to the dual products forming a
    pre-anti-flexible algebra:

      co-m:  (Ds (x) id)Dp - (id (x) Dp)Ds
             = (id (x) sDs)sDp - (sDp (x) id)sDs
      co-lr: ((Dp + Ds) (x) id)Ds - (id (x) Ds)Ds
             = (id (x) sDp)sDp - (s(Dp + Ds) (x) id)sDp

    with s the flip.  Each is an identity of the dual products read through
    the pairing: its residual at e_i is t[p][q][k] = coordinate i of the
    identity at (f_p, f_q, f_k).
    """
    dual = dual_products_from_comult(delta_prec, delta_succ)
    n = dual.dimension
    evaluate = basis_residuals(dual)

    def residuals():
        tables = {}     # identity -> its residuals at every dual triple
        for i in range(n):
            for label, identity in CO_IDENTITIES:
                if identity not in tables:
                    tables[identity] = [[[evaluate(identity, (p, q, k))
                                          for k in range(n)]
                                         for q in range(n)]
                                        for p in range(n)]
                yield label, (i,), [[[v[i] for v in row] for row in plane]
                                    for plane in tables[identity]]
    return scan("dual-pre-via-comult", residuals(), all_failures)


# ---------------------------------------------------------------------------
# the four compatibility conditions
# ---------------------------------------------------------------------------

# The four compatibility conditions as pairings on the AF double of the
# standard dual pair, A + A* (see matched.standard_dual_matched): (label,
# arguments, sign).  At the basis pair x = e_i, y = e_j of A, with
# a = f_p and b = f_q of A*, entry [p][q] of a condition is its sign times
# <AF(u, v, w), z>: AF is the anti-flexible identity of the double at the
# arguments u, v, w, and z is the letter they leave out, paired across
# A + A*.  A missing b reads coordinate q of A, a missing y coordinate
# n + j of A*.
BIALGEBRA_CONDITIONS = (
    ("bialgebra-1", "xya", 1),
    ("bialgebra-3", "xay", 1),
    ("bialgebra-2p", "xba", -1),
    ("bialgebra-4p", "axb", 1),
)


def _condition_residuals(n, evaluate):
    """(label, (i, j), residual) of the four conditions at every basis
    pair, in checking order, given the basis_residuals of the AF double."""
    def identity(args, **at):
        return evaluate("anti-flexible", tuple(at[c] for c in args))

    for i in range(n):
        no_y = {}   # the rows without y do not change with j
        for j in range(n):
            for label, args, sign in BIALGEBRA_CONDITIONS:
                if "y" in args:
                    res = [identity(args, x=i, y=j, a=n + p)[:n]
                           for p in range(n)]
                else:
                    if label not in no_y:
                        no_y[label] = [[identity(args, x=i, a=n + p, b=n + q)
                                        for q in range(n)]
                                       for p in range(n)]
                    res = [[v[n + j] for v in row] for row in no_y[label]]
                yield label, (i, j), res if sign > 0 else \
                    [vec_neg(row) for row in res]


def check_bialgebra_conditions(palg: PreAlgebra, delta_prec, delta_succ,
                               all_failures=False) -> CheckReport:
    """The four compatibility conditions over all basis pairs."""
    rep = check_identities(palg, "pre-anti-flexible")
    if not rep.passed:
        raise PreconditionError("check_bialgebra_conditions: base fails the "
                                "pre-anti-flexible check; witness %r"
                                % (rep.witness,))
    d = build_af_double(standard_dual_matched(
        palg, dual_products_from_comult(delta_prec, delta_succ),
        check_inputs=False))
    return scan("bialgebra-conditions", _condition_residuals(
        palg.dimension, basis_residuals(d)), all_failures)


# ---------------------------------------------------------------------------
# the full verifier
# ---------------------------------------------------------------------------

class ConsistencyError(AssertionError):
    """Two provably equivalent verification routes disagreed; this can only
    come from an implementation bug, never from user input."""


def verify_bialgebra(b: Bialgebra, all_failures=False,
                     _return_routes=False) -> CheckReport:
    """Joint verdict of the four equivalent characterizations.

    Routes, each a full pass/fail verdict:
      1. the four compatibility conditions, as pairings on the AF double;
      2. the dual-action matched pair of the underlying algebras passes;
      3. the AF double is anti-flexible and the canonical skew form on it
         is closed;
      4. the pre double of the eight-map dual-action pair is
         pre-anti-flexible.
    Routes 1-3 read one evaluator of the AF double and route 4 one of the
    pre double: both factors pass by then, so by the matched-pair theorem
    route 4 is the pre matched check of that pair, read as one scan of
    every block of every triple of its double.  Any disagreement among the
    routes raises ConsistencyError.
    A failing verdict carries the witness of the first failing check among
    the base identities, the dual co-identities and route 1, and with
    all_failures every failure of that check.
    """
    structure = check_identities(b.palg, "pre-anti-flexible", all_failures)
    if structure.passed:
        structure = check_dual_pre_via_rmatrix(b.delta_prec, b.delta_succ,
                                               all_failures)
    if not structure.passed:
        return CheckReport(False, "bialgebra", witness=structure.witness,
                           failures=structure.failures)

    dual = dual_products_from_comult(b.delta_prec, b.delta_succ)
    mp = standard_dual_matched(b.palg, dual, check_inputs=False)
    d = build_af_double(mp)
    evaluate = basis_residuals(d)
    conds = scan("bialgebra-conditions", _condition_residuals(
        b.dimension, evaluate), all_failures)
    route2 = _matched_report(mp, evaluate).passed
    route3 = (scan("anti-flexible", triple_residuals(
        evaluate, ("anti-flexible",), d.dimension)).passed
              and omega_double_check(d).passed)
    route4 = check_identities(build_pre_double(dual_pre_matched(
        b.palg, dual, check_inputs=False)), "pre-anti-flexible").passed

    verdicts = (conds.passed, route2, route3, route4)
    if len(set(verdicts)) != 1:
        raise ConsistencyError("equivalent bialgebra routes disagree: "
                               "conditions=%s matched=%s double=%s pre=%s"
                               % verdicts)
    if _return_routes:
        return verdicts
    if conds.passed:
        return CheckReport(True, "bialgebra")
    return CheckReport(False, "bialgebra", witness=conds.witness,
                       failures=conds.failures)


# ---------------------------------------------------------------------------
# homomorphisms and the dual bialgebra
# ---------------------------------------------------------------------------

def check_bialgebra_hom(psi, src: Bialgebra, dst: Bialgebra,
                        all_failures=False) -> CheckReport:
    """psi: A -> B a pre-algebra homomorphism whose dual is also one.

    Checked on basis elements: psi(x ? y) = psi(x) ? psi(y) for both
    half-products; (psi (x) psi) D_?A = D_?B o psi; and the dual-side
    conditions (psi* (x) psi*) beta_?B = beta_?A o psi*, where beta are the
    comultiplications dual to the products (index transpositions).
    """
    nA, nB = src.dimension, dst.dimension
    if len(psi) != nB or any(len(r) != nA for r in psi):
        raise PreconditionError("check_bialgebra_hom: psi must be a "
                                "dst-dim x src-dim matrix")
    return scan("bialgebra-hom", _hom_residuals(psi, src, dst), all_failures)


def _hom_residuals(psi, src, dst):
    nA, nB = src.dimension, dst.dimension
    psit = transpose(psi)
    for i, j in product(range(nA), repeat=2):
        x, y = basis_vec(nA, i), basis_vec(nA, j)
        px, py = mat_vec(psi, x), mat_vec(psi, y)
        for label, mine, theirs in (
                ("hom-prec", src.palg.mul_prec(x, y),
                 dst.palg.mul_prec(px, py)),
                ("hom-succ", src.palg.mul_succ(x, y),
                 dst.palg.mul_succ(px, py))):
            yield label, (i, j), [a - b for a, b in
                                  zip(mat_vec(psi, mine), theirs)]
    for i in range(nA):
        px = mat_vec(psi, basis_vec(nA, i))
        for label, dA, dB in (("hom-comult-prec", src.delta_prec,
                               dst.delta_prec),
                              ("hom-comult-succ", src.delta_succ,
                               dst.delta_succ)):
            yield label, (i,), mat_sub(mat_mul(mat_mul(psi, dA[i]), psit),
                                       act(dB, px))
    # dual side: beta maps are the comultiplications dual to the products;
    # psi*: B* -> A* has matrix psi^T.
    betaA = comult_from_products(src.palg)
    betaB = comult_from_products(dst.palg)
    for s in range(nB):
        pa = mat_vec(psit, basis_vec(nB, s))
        for label, bB, bA in (("hom-beta-prec", betaB[0], betaA[0]),
                              ("hom-beta-succ", betaB[1], betaA[1])):
            yield label, (s,), mat_sub(mat_mul(mat_mul(psit, bB[s]), psi),
                                       act(bA, pa))


def dual_bialgebra(b: Bialgebra) -> Bialgebra:
    """Exchange the roles of the algebra and the comultiplications: the dual
    structure's products are the ones induced by b's comultiplications, and
    its comultiplications are the duals of b's products.  An involution."""
    rep = verify_bialgebra(b)
    if not rep.passed:
        raise PreconditionError("dual_bialgebra: input fails verification; "
                                "witness %r" % (rep.witness,))
    dual = dual_products_from_comult(b.delta_prec, b.delta_succ)
    dp, ds = comult_from_products(b.palg)
    return Bialgebra(dual, tuple(dp), tuple(ds))
