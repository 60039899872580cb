"""The file reader and writer as they were before one schema table
described every kind: a hand-written parser per kind and an if-chain of
emitters.  It is the reference that antiflex.harness, which reads and
writes every kind from the rows of _SCHEMA, is tested against: the same
object bytes, or the same FormatError message, on every document.

Also the grid search as it was before each target's residual was compiled
into a quadratic form: every candidate checked by a whole run of the int
kernel.  Its O-operator kernel is the per-i one of operators_reference,
and _o_operator_residual the adapter that the compiled grid read it
through before the kernel returned one flat tensor."""

import itertools
import json
from fractions import Fraction
from math import lcm

from antiflex.algebra import Algebra, PreAlgebra, PreconditionError, \
    check_identities, require_pass, structure_tensors
from antiflex.bialgebra import Bialgebra
from antiflex.bimodule import AfBimodule, PreBimodule
from antiflex.coboundary import RPair, _PAFYBE_TERMS, _numerators
from antiflex.harness import FORMAT_VERSION, FormatError, LinearMap, \
    RElement, SearchSpec, _fill_symmetric, parse_scalar
from antiflex.matched import AfMatchedPair, PreMatchedPair
from antiflex.operators import regular_tensors, require_af_bimodule

from operators_reference import o_operator_numerators


def require_anti_flexible(alg: Algebra, caller):
    """Raise PreconditionError, naming the caller, unless the base algebra
    passes the anti-flexible check."""
    require_pass(check_identities(alg, "anti-flexible"),
                 "%s: base fails the anti-flexible check" % caller)


def _rows(cols, vals):
    """The entries of a matrix in row-major order as its rows."""
    return [vals[at:at + cols] for at in range(0, len(vals), cols)]


def _vec(data, n, path):
    if not isinstance(data, list) or len(data) != n:
        raise FormatError("%s: expected a list of length %d" % (path, n))
    return [parse_scalar(v, "%s[%d]" % (path, i)) for i, v in enumerate(data)]


def _mat(data, rows, cols, path):
    if not isinstance(data, list) or len(data) != rows:
        raise FormatError("%s: expected %d rows" % (path, rows))
    return [_vec(row, cols, "%s[%d]" % (path, i))
            for i, row in enumerate(data)]


def _t3(data, n1, n2, n3, path):
    if not isinstance(data, list) or len(data) != n1:
        raise FormatError("%s: expected %d slices" % (path, n1))
    return [_mat(m, n2, n3, "%s[%d]" % (path, i))
            for i, m in enumerate(data)]


def _mats(data, count, rows, cols, path):
    if not isinstance(data, list) or len(data) != count:
        raise FormatError("%s: expected %d matrices" % (path, count))
    return tuple(_mat(m, rows, cols, "%s[%d]" % (path, i))
                 for i, m in enumerate(data))


def _fmt(x):
    return str(Fraction(x))


def _emit_mat(m):
    return [[_fmt(x) for x in row] for row in m]


def _emit_t3(t):
    return [[[_fmt(x) for x in row] for row in m] for m in t]


def _names(doc, n, path):
    names = doc.pop("basis_names", None)
    if names is None:
        return ()
    if not isinstance(names, list) or len(names) != n or \
            not all(isinstance(s, str) for s in names):
        raise FormatError("%s.basis_names: expected %d strings" % (path, n))
    return tuple(names)


def _dim(doc, path, key="dimension"):
    n = doc.pop(key, None)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise FormatError("%s.%s: expected a positive integer" % (path, key))
    return n


def _reject_unknown(doc, path):
    doc.pop("metadata", None)
    if doc:
        raise FormatError("%s: unknown fields %s"
                          % (path, sorted(doc.keys())))


def _parse_algebra(doc, path):
    n = _dim(doc, path)
    prod = _t3(doc.pop("product", None), n, n, n, path + ".product")
    names = _names(doc, n, path)
    _reject_unknown(doc, path)
    return Algebra(n, prod, names)


def _parse_pre_algebra(doc, path):
    n = _dim(doc, path)
    prec = _t3(doc.pop("prec", None), n, n, n, path + ".prec")
    succ = _t3(doc.pop("succ", None), n, n, n, path + ".succ")
    names = _names(doc, n, path)
    _reject_unknown(doc, path)
    return PreAlgebra(n, prec, succ, names)


def _parse_embedded(doc, kind, path):
    """An algebra or pre-algebra embedded in another structure.  Its
    "kind", which the package writes, is optional but must name the
    expected structure."""
    if not isinstance(doc, dict):
        raise FormatError(path + ": expected an embedded object")
    doc = dict(doc)
    got = doc.pop("kind", kind)
    if got != kind:
        raise FormatError("%s.kind: expected %r, got %r" % (path, kind, got))
    return _PARSERS[kind](doc, path)


def _parse_bimodule(doc, path):
    variant = doc.pop("variant", None)
    base_doc = doc.pop("base", None)
    m = _dim(doc, path, "space_dim")
    if variant == "anti-flexible":
        base = _parse_embedded(base_doc, "algebra", path + ".base")
        n = base.dimension
        l = _mats(doc.pop("l", None), n, m, m, path + ".l")
        r = _mats(doc.pop("r", None), n, m, m, path + ".r")
        _reject_unknown(doc, path)
        return AfBimodule(base, m, l, r)
    if variant == "pre":
        base = _parse_embedded(base_doc, "pre-algebra", path + ".base")
        n = base.dimension
        maps = [_mats(doc.pop(k, None), n, m, m, "%s.%s" % (path, k))
                for k in ("l_succ", "r_succ", "l_prec", "r_prec")]
        _reject_unknown(doc, path)
        return PreBimodule(base, m, *maps)
    raise FormatError(path + ".variant: expected 'anti-flexible' or 'pre'")


def _parse_matched(doc, path):
    variant = doc.pop("variant", None)
    if variant == "anti-flexible":
        algA = _parse_embedded(doc.pop("A", None), "algebra", path + ".A")
        algB = _parse_embedded(doc.pop("B", None), "algebra", path + ".B")
        n, m = algA.dimension, algB.dimension
        lA = _mats(doc.pop("lA", None), n, m, m, path + ".lA")
        rA = _mats(doc.pop("rA", None), n, m, m, path + ".rA")
        lB = _mats(doc.pop("lB", None), m, n, n, path + ".lB")
        rB = _mats(doc.pop("rB", None), m, n, n, path + ".rB")
        _reject_unknown(doc, path)
        return AfMatchedPair(algA, algB, lA, rA, lB, rB)
    if variant == "pre":
        palgA = _parse_embedded(doc.pop("A", None), "pre-algebra",
                                path + ".A")
        palgB = _parse_embedded(doc.pop("B", None), "pre-algebra",
                                path + ".B")
        n, m = palgA.dimension, palgB.dimension
        mapsA = [_mats(doc.pop(k, None), n, m, m, "%s.%s" % (path, k))
                 for k in ("ls_A", "rs_A", "lp_A", "rp_A")]
        mapsB = [_mats(doc.pop(k, None), m, n, n, "%s.%s" % (path, k))
                 for k in ("ls_B", "rs_B", "lp_B", "rp_B")]
        _reject_unknown(doc, path)
        return PreMatchedPair(palgA, palgB, *(mapsA + mapsB))
    raise FormatError(path + ".variant: expected 'anti-flexible' or 'pre'")


def _parse_bialgebra(doc, path):
    n = _dim(doc, path)
    prec = _t3(doc.pop("prec", None), n, n, n, path + ".prec")
    succ = _t3(doc.pop("succ", None), n, n, n, path + ".succ")
    dprec = _t3(doc.pop("delta_prec", None), n, n, n, path + ".delta_prec")
    dsucc = _t3(doc.pop("delta_succ", None), n, n, n, path + ".delta_succ")
    names = _names(doc, n, path)
    _reject_unknown(doc, path)
    return Bialgebra(PreAlgebra(n, prec, succ, names), dprec, dsucc)


def _parse_r_element(doc, path):
    n = _dim(doc, path)
    if "r" in doc:
        r = _mat(doc.pop("r", None), n, n, path + ".r")
        _reject_unknown(doc, path)
        return RElement(n, r)
    rp = _mat(doc.pop("r_prec", None), n, n, path + ".r_prec")
    rs = _mat(doc.pop("r_succ", None), n, n, path + ".r_succ")
    _reject_unknown(doc, path)
    return RPair(rp, rs)


def _parse_linear_map(doc, path):
    rows = _dim(doc, path, "rows")
    cols = _dim(doc, path, "cols")
    m = _mat(doc.pop("matrix", None), rows, cols, path + ".matrix")
    _reject_unknown(doc, path)
    return LinearMap(rows, cols, m)


_PARSERS = {
    "algebra": _parse_algebra,
    "pre-algebra": _parse_pre_algebra,
    "bimodule": _parse_bimodule,
    "matched-pair": _parse_matched,
    "bialgebra": _parse_bialgebra,
    "r-element": _parse_r_element,
    "linear-map": _parse_linear_map,
}


def parse_file(data):
    """Parse JSON bytes/text into the typed object its "kind" field names."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError("not UTF-8 text: %s" % exc) from exc
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise FormatError("not valid JSON: %s" % exc) from exc
    if not isinstance(doc, dict):
        raise FormatError("top level: expected an object")
    version = doc.pop("format_version", None)
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError("format_version: expected %d, got %r"
                          % (FORMAT_VERSION, version))
    kind = doc.pop("kind", None)
    if not isinstance(kind, str) or kind not in _PARSERS:
        raise FormatError("kind: unknown kind %r (expected one of %s)"
                          % (kind, sorted(_PARSERS)))
    return _PARSERS[kind](doc, kind)


def _emit_algebra(obj):
    return {"kind": "algebra", "dimension": obj.dimension,
            "basis_names": list(obj.basis_names),
            "product": _emit_t3(obj.product)}


def _emit_pre_algebra(obj):
    return {"kind": "pre-algebra", "dimension": obj.dimension,
            "basis_names": list(obj.basis_names),
            "prec": _emit_t3(obj.prec), "succ": _emit_t3(obj.succ)}


def _emit(obj):
    if isinstance(obj, Algebra):
        return _emit_algebra(obj)
    if isinstance(obj, PreAlgebra):
        return _emit_pre_algebra(obj)
    if isinstance(obj, AfBimodule):
        return {"kind": "bimodule", "variant": "anti-flexible",
                "base": _emit_algebra(obj.base), "space_dim": obj.space_dim,
                "l": [_emit_mat(m) for m in obj.l],
                "r": [_emit_mat(m) for m in obj.r]}
    if isinstance(obj, PreBimodule):
        out = {"kind": "bimodule", "variant": "pre",
               "base": _emit_pre_algebra(obj.base),
               "space_dim": obj.space_dim}
        for k in ("l_succ", "r_succ", "l_prec", "r_prec"):
            out[k] = [_emit_mat(m) for m in getattr(obj, k)]
        return out
    if isinstance(obj, AfMatchedPair):
        out = {"kind": "matched-pair", "variant": "anti-flexible",
               "A": _emit_algebra(obj.algA), "B": _emit_algebra(obj.algB)}
        for k in ("lA", "rA", "lB", "rB"):
            out[k] = [_emit_mat(m) for m in getattr(obj, k)]
        return out
    if isinstance(obj, PreMatchedPair):
        out = {"kind": "matched-pair", "variant": "pre",
               "A": _emit_pre_algebra(obj.palgA),
               "B": _emit_pre_algebra(obj.palgB)}
        for k in ("ls_A", "rs_A", "lp_A", "rp_A",
                  "ls_B", "rs_B", "lp_B", "rp_B"):
            out[k] = [_emit_mat(m) for m in getattr(obj, k)]
        return out
    if isinstance(obj, Bialgebra):
        out = _emit_pre_algebra(obj.palg)
        out["kind"] = "bialgebra"
        out["delta_prec"] = _emit_t3(obj.delta_prec)
        out["delta_succ"] = _emit_t3(obj.delta_succ)
        return out
    if isinstance(obj, RElement):
        return {"kind": "r-element", "dimension": obj.dimension,
                "r": _emit_mat(obj.r)}
    if isinstance(obj, RPair):
        return {"kind": "r-element", "dimension": obj.dimension,
                "r_prec": _emit_mat(obj.r_prec),
                "r_succ": _emit_mat(obj.r_succ)}
    if isinstance(obj, LinearMap):
        return {"kind": "linear-map", "rows": obj.rows, "cols": obj.cols,
                "matrix": _emit_mat(obj.matrix)}
    raise FormatError("cannot serialize objects of type %s"
                      % type(obj).__name__)


def serialize(obj) -> bytes:
    """Canonical JSON bytes for any parseable object; keys emitted in a
    fixed order, scalars in lowest terms."""
    doc = {"format_version": FORMAT_VERSION}
    doc.update(_emit(obj))
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def grid_search(spec: SearchSpec, subject):
    """Exhaustively enumerate candidate matrices with entries drawn from
    the coefficient set, in lexicographic order, and keep those that pass
    the check for the target.  Every check is homogeneous in the
    candidate, so the candidates are enumerated in ints, as the
    coefficient set times its lcd, and one is accepted when its int
    residuals are all zero: no report is built, and only the matrices kept
    are divided back.  The check's precondition on the subject runs once,
    before the enumeration, and the subject's int tensors are built once.
    Returns (found, report)."""
    coeffs = spec.coefficient_set
    if spec.target == "o-operator":
        n, m = subject.base.dimension, subject.space_dim
        if max(n, m) > spec.bound:
            raise PreconditionError("grid_search: dimensions (%d, %d) exceed "
                                    "the bound %d" % (n, m, spec.bound))
    else:
        n = m = subject.dimension
        if n > spec.bound:
            raise PreconditionError("grid_search: dimension %d exceeds the "
                                    "bound %d" % (n, spec.bound))
    if spec.target == "pafybe-symmetric":
        shape = [(i, j) for i in range(n) for j in range(i, n)]
        matrix = lambda vals: _fill_symmetric(n, shape, vals)
    else:
        shape = range(n * m)
        matrix = lambda vals: _rows(m, vals)
    size = len(coeffs) ** len(shape)
    if size > 10 ** 8:
        raise PreconditionError("grid_search: search space has %d candidates "
                                "(limit 10^8)" % size)
    if spec.target == "pafybe-symmetric":
        tensors = structure_tensors(subject)
        accept = lambda r: not any(_numerators(tensors, _PAFYBE_TERMS,
                                               {"r": r})[0])
    else:
        if spec.target == "rota-baxter":
            require_anti_flexible(subject, "check_rota_baxter")
            numerators = o_operator_numerators(regular_tensors(subject))
        else:
            require_af_bimodule(subject, "check_o_operator")
            numerators = o_operator_numerators(structure_tensors(subject))
        accept = lambda t: next(numerators(t), None) is None
    scale = lcm(*(c.denominator for c in coeffs))
    found = [matrix([Fraction(v, scale) for v in vals])
             for vals in itertools.product([int(c * scale) for c in coeffs],
                                           repeat=len(shape))
             if accept(matrix(vals))]
    report = {"format_version": FORMAT_VERSION, "target": spec.target,
              "candidates": size, "found": len(found),
              "coefficient_set": list(map(str, coeffs))}
    return found, report


def _o_operator_residual(tensors):
    """t -> the whole flat int residual of o_operator_numerators on
    tensors, with zeros for the blocks it does not yield."""
    numerators = o_operator_numerators(tensors)

    def residual(t):
        size = len(t) * len(t[0])
        out = [0] * (len(t[0]) * size)
        for i, block in numerators(t):
            out[i * size:(i + 1) * size] = block
        return out
    return residual
