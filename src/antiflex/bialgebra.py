"""Comultiplications and pre-anti-flexible bialgebras.

A comultiplication D: A -> A (x) A is stored as a rank-3 tensor d with
D(e_i) = sum_{j,k} d[i][j][k] e_j (x) e_k, so D(e_i) is the matrix d[i].
An operator pair acts by (P (x) Q) M = P M Q^T and the flip sigma is the
matrix transpose.  A bialgebra is a pre-algebra on A with two
comultiplications whose duals give the products on A*; verify_bialgebra
decides it by four equivalent routes that must agree.

Every route reads an identity of a double through the pairing of A with
A*, as rows of a table read by algebra.table_residuals.  The two
co-identities (CO_IDENTITIES) are coordinates of the pre-anti-flexible
identities of the dual products, and route 1's conditions
(BIALGEBRA_CONDITIONS) entries of the AF double's anti-flexible identity,
each paired with the basis letter its arguments leave out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product

from .algebra import PreAlgebra, CheckReport, _require_kind, _trusted, \
    basis_residuals, check_identities, require_identities, require_matrix, \
    require_pass, require_tensor, scan, table_residuals, triple_residuals
from .bimodule import act
from .linalg import transpose, mat_mul, mat_sub, mat_vec
from .matched import AfMatchedPair, PreMatchedPair, _dual_pair, \
    _matched_report, build_af_double, build_pre_double, omega_double_check


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

    @cached_property
    def dual(self) -> PreAlgebra:
        """The products on the dual space (dual_products_from_comult), built
        once."""
        return _dual_products(self.delta_prec, self.delta_succ)


def dual_products_from_comult(delta_prec, delta_succ) -> PreAlgebra:
    """The half-products on the dual space: <f_i ? f_j, e_k> = <f_i (x) f_j,
    D_?(e_k)>, i.e. plain index transposition of the comultiplication
    tensors."""
    n = len(delta_prec)
    for name, t in (("delta_prec", delta_prec), ("delta_succ", delta_succ)):
        require_tensor("dual_products_from_comult", name, t, (n,) * 3)
    return _dual_products(delta_prec, delta_succ)


def _dual_products(delta_prec, delta_succ) -> PreAlgebra:
    """dual_products_from_comult on comultiplication tensors already
    checked."""
    n = len(delta_prec)
    r = range(n)
    return _trusted(PreAlgebra, n, *([[[t[k][i][j] for k in r] for j in r]
                                      for i in r]
                                     for t in (delta_prec, delta_succ)),
                    tuple("f%d" % (i + 1) for i in r))


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
# it collects: (label, identity, its arguments and coordinate, sign; see
# algebra.table_residuals).  Entry [p][q][k] of the residual at e_i is
# coordinate i of the identity at (f_p, f_q, f_k).
CO_IDENTITIES = (("co-identity-m", "pre-anti-flexible-m", "pqki", 1),
                 ("co-identity-lr", "pre-anti-flexible-lr", "pqki", 1))


def check_dual_pre_via_rmatrix(delta_prec, delta_succ,
                               all_failures=False) -> CheckReport:
    """The two co-identities equivalent to the dual products forming a
    pre-anti-flexible algebra:

      co-m:  (Ds (x) id)Dp - (id (x) Dp)Ds
             = (id (x) sDs)sDp - (sDp (x) id)sDs
      co-lr: ((Dp + Ds) (x) id)Ds - (id (x) Ds)Ds
             = (id (x) sDp)sDp - (s(Dp + Ds) (x) id)sDp

    with s the flip: its residual at e_i is t[p][q][k] = coordinate i of
    the identity of the dual products at (f_p, f_q, f_k).
    """
    return _co_identities(dual_products_from_comult(delta_prec, delta_succ),
                          all_failures)


def _co_identities(dual, all_failures):
    """check_dual_pre_via_rmatrix on the dual products."""
    at = dict.fromkeys("pqki", range(dual.dimension))
    return scan("dual-pre-via-comult", table_residuals(
        basis_residuals(dual), CO_IDENTITIES, at, at, "i", "pqk"),
        all_failures)


# ---------------------------------------------------------------------------
# the four compatibility conditions
# ---------------------------------------------------------------------------

# The four compatibility conditions as pairings on the AF double of the
# standard dual pair, A + A* (see matched.standard_dual_matched): (label,
# identity of the double, its arguments and the letter they leave out,
# sign).  At the basis pair x = e_i, y = e_j of A, with a = f_p and b = f_q
# of A*, entry [p][q] of a condition is its sign times <AF(u, v, w), z>:
# AF is the anti-flexible identity of the double at the arguments u, v, w,
# and z is the letter they leave out, paired across A + A*.  A missing b
# reads coordinate q of A, a missing y coordinate n + j of A*.
BIALGEBRA_CONDITIONS = (
    ("bialgebra-1", "anti-flexible", "xyab", 1),
    ("bialgebra-3", "anti-flexible", "xayb", 1),
    ("bialgebra-2p", "anti-flexible", "xbay", -1),
    ("bialgebra-4p", "anti-flexible", "axby", 1),
)


def _condition_residuals(n, tensor):
    """(label, (i, j), residual) of the four conditions at every basis
    pair where it is nonzero, in checking order, given the basis_residuals
    of the AF double: x, y range over A and a, b over A*, and the left-out
    letter is read as a coordinate of its pair, the other block."""
    A, D = range(n), range(n, 2 * n)
    return table_residuals(tensor, BIALGEBRA_CONDITIONS,
                           {"x": A, "y": A, "a": D, "b": D},
                           {"b": A, "y": D}, "xy", "ab")


def check_bialgebra_conditions(palg: PreAlgebra, delta_prec, delta_succ,
                               all_failures=False) -> CheckReport:
    """The four compatibility conditions over all basis pairs."""
    require_identities("check_bialgebra_conditions", palg,
                       "pre-anti-flexible")
    d = build_af_double(_dual_pair(AfMatchedPair, palg, Bialgebra(
        palg, delta_prec, delta_succ).dual))
    return scan("bialgebra-conditions", _condition_residuals(
        palg.dimension, basis_residuals(d)), all_failures)


# ---------------------------------------------------------------------------
# the full verifier
# ---------------------------------------------------------------------------

class ConsistencyError(AssertionError):
    """Two provably equivalent verification routes disagreed; this can only
    come from an implementation bug, never from user input."""


def verify_bialgebra(b: Bialgebra, all_failures=False) -> CheckReport:
    """Joint verdict of the four equivalent characterizations, each a full
    pass/fail verdict: 1. the four compatibility conditions, as pairings on
    the AF double of the standard dual pair; 2. that pair is matched;
    3. the AF double is anti-flexible and the canonical skew form on it is
    closed; 4. the pre double of the eight-map dual pair is
    pre-anti-flexible.  bialgebra_routes runs them once the base and the
    dual products pass.  A failing verdict carries the witness of the
    first failing check among the base identities, the co-identities and
    route 1 (with all_failures, every failure of that check).
    """
    _require_kind("verify_bialgebra", b, Bialgebra)
    report = check_identities(b.palg, "pre-anti-flexible", all_failures)
    if report.passed:
        report = _co_identities(b.dual, all_failures)
    if report.passed:
        report = bialgebra_routes(b, all_failures)[0]
    return replace(report, identity_name="bialgebra")


def bialgebra_routes(b: Bialgebra, all_failures=False):
    """Route 1's report and the verdicts of the four routes of
    verify_bialgebra, on a bialgebra whose base and dual products pass.
    Routes 1-3 read one evaluator of the AF double; route 4, by the
    matched-pair theorem the pre matched check, is one scan of the pre
    double.  Routes that disagree raise ConsistencyError.
    """
    mp = _dual_pair(AfMatchedPair, b.palg, b.dual)
    d = build_af_double(mp)
    tensor = basis_residuals(d)
    conds = scan("bialgebra-conditions", _condition_residuals(
        b.dimension, tensor), all_failures)
    route2 = _matched_report(mp, tensor).passed
    route3 = (scan("anti-flexible", triple_residuals(
        tensor, ("anti-flexible",), d.dimension)).passed
              and omega_double_check(d).passed)
    route4 = check_identities(build_pre_double(_dual_pair(
        PreMatchedPair, b.palg, b.dual)), "pre-anti-flexible").passed

    verdicts = (conds.passed, route2, route3, route4)
    if len(set(verdicts)) != 1:
        raise ConsistencyError("equivalent bialgebra routes disagree: "
                               "conditions=%s matched=%s double=%s pre=%s"
                               % verdicts)
    return conds, verdicts


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
    require_matrix("check_bialgebra_hom", "psi", psi, dst.dimension,
                   src.dimension)
    return scan("bialgebra-hom", _hom_residuals(psi, src, dst), all_failures)


def _hom_residuals(psi, src, dst):
    """On the product rows of src and the columns of psi, the rows of its
    transpose: psi(e_i) is psit[i].  The dual side is the product side
    read through the pairing: entry [j][l] of the beta residual at f_s is
    minus coordinate s of the product residual at (e_j, e_l)."""
    nA, nB = src.dimension, dst.dimension
    psit = transpose(psi)
    products = {}       # (label, i, j) -> the product residual
    for i, j in product(range(nA), repeat=2):
        px, py = psit[i], psit[j]
        for label, mine, theirs in (
                ("hom-prec", src.palg.prec[i][j], dst.palg.mul_prec(px, py)),
                ("hom-succ", src.palg.succ[i][j], dst.palg.mul_succ(px, py))):
            res = products[label, i, j] = [a - b for a, b in
                                           zip(mat_vec(psi, mine), theirs)]
            yield label, (i, j), res
    for i in range(nA):
        for label, dA, dB in (("hom-comult-prec", src.delta_prec,
                               dst.delta_prec),
                              ("hom-comult-succ", src.delta_succ,
                               dst.delta_succ)):
            yield label, (i,), mat_sub(mat_mul(mat_mul(psi, dA[i]), psit),
                                       act(dB, psit[i]))
    for s in range(nB):
        for label, side in (("hom-beta-prec", "hom-prec"),
                            ("hom-beta-succ", "hom-succ")):
            yield label, (s,), [[-products[side, j, l][s] for l in range(nA)]
                                for j in range(nA)]


def dual_bialgebra(b: Bialgebra) -> Bialgebra:
    """Exchange the roles of the algebra and the comultiplications: the dual
    structure's products are the ones induced by b's comultiplications, and
    its comultiplications are the duals of b's products.  An involution."""
    require_pass(verify_bialgebra(b),
                 "dual_bialgebra: input fails verification")
    dp, ds = comult_from_products(b.palg)
    return _trusted(Bialgebra, b.dual, tuple(dp), tuple(ds))
