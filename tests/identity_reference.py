"""The identity check as a per-tuple scan of the element-level residuals on
basis vectors: the reference that the composition evaluator behind
antiflex.algebra.check_identities is tested against.

Also the per-triple composition evaluator, basis_residuals here, that
antiflex.algebra.basis_residuals and table_residuals replaced: it returns
the dense residual of an identity at any basis triple, and the readers of
the identity tables in tests/*_reference.py call it at every basis tuple.
"""

from fractions import Fraction

from antiflex.algebra import CheckReport, _TERMS, _triple, \
    identity_residuals, structure_tensors
from antiflex.linalg import ZERO, vec_is_zero

from helpers import basis_vec


def reference_check_identities(subject, kind, all_failures=False):
    """check_identities through identity_residuals, tuple by tuple."""
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
                            return CheckReport(False, kind, failures[0],
                                               (failures[0],))
    if not failures:
        return CheckReport(True, kind)
    return CheckReport(False, kind, failures[0], tuple(failures))


def basis_residuals(structure):
    """The function (label, (i, j, k)) -> residual of the identity `label`
    of COMPOSITIONS at the basis triple (e_i, e_j, e_k), read straight from
    the structure constants.

    On first use of a label its whole residual tensor is built from the
    support alone: the structure constants are scaled to ints by their lcd
    D (structure_tensors), each composition is enumerated over the nonzero
    rows of its products only, and every triple whose int residual is
    nonzero is divided back once, as Fraction(v, D**2).  Every other triple
    is exactly zero, a sum of no terms or of terms that cancel, and returns
    one shared zero residual that no reader mutates.  The tensor of a label
    is built once per evaluator and freed with it; evaluate.tensor(label)
    maps the flat position (i * d + j) * d + k of each nonzero triple to
    its residual.
    """
    d = structure.dimension
    c = structure_tensors(structure)
    zero = [ZERO] * d
    tensors = {}    # label -> its nonzero residuals by flat position
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
        out = tensors[label] = {}
        for at, v in acc.items():
            if v:
                t, q = divmod(at, d)
                res = out.get(t)
                if res is None:
                    res = out[t] = [ZERO] * d
                res[q] = Fraction(v, scale)
        return out

    def evaluate(label, idx):
        i, j, k = idx
        t = tensors.get(label)
        if t is None:
            t = tensor(label)
        return t.get((i * d + j) * d + k, zero)

    evaluate.tensor = tensor
    return evaluate


def triple_residuals(evaluate, labels, n):
    """(label, (i, j, k), residual) of each label at every basis triple of
    an n-dimensional structure whose residual is nonzero, in scan order
    (index triple, then label order), given its basis_residuals.  Every
    other triple is exactly zero, decided by the structure: it lies
    outside the support of the label's residual tensor.  The tensors are
    built whole when the stream is first read; scan still reads the stream
    no further than the first witness."""
    tensors = [(label, evaluate.tensor(label)) for label in labels]
    for t in sorted(set().union(*(tensor for _, tensor in tensors))):
        idx = _triple(t, n)
        for label, tensor in tensors:
            if t in tensor:
                yield label, idx, tensor[t]
