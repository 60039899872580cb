"""File format, checker dispatch, the random-element oracle, and bounded
grid searches.

Objects travel as JSON with every scalar a "p/q" string (never floats), so
exactness survives any toolchain.  parse/serialize round-trip exactly on
canonical files; unknown fields are rejected with the offending path.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import time
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra, PreAlgebra, CheckReport, PreconditionError, \
    check_identities, identity_residuals
from .bialgebra import Bialgebra, verify_bialgebra
from .bimodule import AfBimodule, PreBimodule, check_af_bimodule, \
    check_pre_bimodule
from .coboundary import RPair, check_pafybe, check_coboundary_conditions, \
    pafybe_core, structure_tensors
from .matched import AfMatchedPair, PreMatchedPair, check_af_matched, \
    check_pre_matched
from .operators import OOperator, check_rota_baxter, check_o_operator, \
    check_two_cocycle, check_r_double_consistency, o_operator_core, \
    require_af_bimodule, require_anti_flexible, rota_baxter_core
from .linalg import vec_is_zero

FORMAT_VERSION = 1


class FormatError(ValueError):
    """Malformed input file: bad scalar, wrong shape, or unknown field."""


# ---------------------------------------------------------------------------
# wrapper types for payloads that are bare matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RElement:
    """A single element of A (x) A as its coefficient matrix."""
    dimension: int
    r: tuple

    def __post_init__(self):
        if len(self.r) != self.dimension or \
                any(len(row) != self.dimension for row in self.r):
            raise PreconditionError("RElement: matrix must be square of the "
                                    "stated dimension")
        object.__setattr__(self, "r", tuple(tuple(row) for row in self.r))


@dataclass(frozen=True)
class LinearMap:
    """A rows x cols matrix standing for a linear map in coordinates."""
    rows: int
    cols: int
    matrix: tuple

    def __post_init__(self):
        if len(self.matrix) != self.rows or \
                any(len(row) != self.cols for row in self.matrix):
            raise PreconditionError("LinearMap: matrix must be rows x cols")
        object.__setattr__(self, "matrix",
                           tuple(tuple(row) for row in self.matrix))


# ---------------------------------------------------------------------------
# scalar and shape plumbing
# ---------------------------------------------------------------------------

# the scalars serialize writes: an optional minus sign, ASCII digits, and
# optionally a slash and more digits
_SCALAR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_scalar(s, path):
    """The Fraction a "p/q" string of _SCALAR stands for; path names it in
    errors."""
    if not isinstance(s, str):
        raise FormatError("%s: scalar must be a \"p/q\" string, got %r"
                          % (path, s))
    match = _SCALAR.fullmatch(s)
    if match is not None:
        p, q = match.groups()
        try:
            return Fraction(int(p), int(q)) if q else Fraction(int(p))
        except (ValueError, ZeroDivisionError):
            pass    # past the digit limit of int(), or a zero denominator
    raise FormatError("%s: malformed scalar %r" % (path, s))


def _fmt(x):
    return str(Fraction(x))


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


def _emit_vec(v):
    return [_fmt(x) for x in v]


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


# ---------------------------------------------------------------------------
# per-kind parse / emit
# ---------------------------------------------------------------------------

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


def load_file(path):
    with open(path, "rb") as fh:
        return parse_file(fh.read())


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


def save_file(path, obj):
    with open(path, "wb") as fh:
        fh.write(serialize(obj))


CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def corpus_names():
    return sorted(f[:-5] for f in os.listdir(CORPUS_DIR)
                  if f.endswith(".json"))


def load_corpus(name):
    """One of the shipped seed associative algebras by short name."""
    return load_file(os.path.join(CORPUS_DIR, name + ".json"))


# ---------------------------------------------------------------------------
# checker dispatch and JSON reports
# ---------------------------------------------------------------------------

def _residual_json(res):
    if res and isinstance(res, (list, tuple)) and \
            isinstance(res[0], (list, tuple)):
        if isinstance(res[0][0], (list, tuple)):
            return _emit_t3(res)
        return _emit_mat(res)
    return _emit_vec(res)


def report_to_json(command, rep: CheckReport, elapsed=0.0):
    out = {"format_version": FORMAT_VERSION, "command": command,
           "verdict": "pass" if rep.passed else "fail",
           "identity": rep.identity_name, "witness": None,
           "failure_count": len(rep.failures),
           "wall_time_ms": elapsed * 1000.0}
    if rep.witness is not None:
        label, idx, res = rep.witness
        out["witness"] = {"identity": label,
                          "indices": list(idx) if isinstance(idx, tuple)
                          else [idx],
                          "residual": _residual_json(res)}
    return out


def run_check(command, inputs, kind=None, all_failures=False):
    """Dispatch a named check over parsed inputs and return a JSON-ready
    report (verdict, first witness, wall time)."""
    start = time.perf_counter()
    rep = _dispatch_check(command, inputs, kind, all_failures)
    return report_to_json(command, rep, time.perf_counter() - start)


def as_matrix(obj):
    if isinstance(obj, RElement):
        return obj.r
    if isinstance(obj, LinearMap):
        return obj.matrix
    raise FormatError("expected an r-element or linear-map payload")


# what each input file of a check command must hold: its description, and
# the types parse_file gives for it
_ANY_ALGEBRA = ("an algebra or pre-algebra", (Algebra, PreAlgebra))
_PRE = ("a pre-algebra", (PreAlgebra,))
_MATRIX = ("an r-element with one matrix r, or a linear-map",
           (RElement, LinearMap))

# each check command: (its input files, in order;
#                      (inputs, kind, all_failures) -> CheckReport)
_CHECKS = {
    "algebra": ((_ANY_ALGEBRA,), lambda ins, kind, every: check_identities(
        ins[0], kind or "anti-flexible", every)),
    "pre-algebra": ((_ANY_ALGEBRA,),
                    lambda ins, kind, every: check_identities(
                        ins[0], kind or "pre-anti-flexible", every)),
    "bimodule": ((("a bimodule", (AfBimodule, PreBimodule)),),
                 lambda ins, kind, every: (
                     check_af_bimodule if isinstance(ins[0], AfBimodule)
                     else check_pre_bimodule)(ins[0], every)),
    "matched-pair": ((("a matched-pair", (AfMatchedPair, PreMatchedPair)),),
                     lambda ins, kind, every: (
                         check_af_matched if isinstance(ins[0], AfMatchedPair)
                         else check_pre_matched)(ins[0], every)),
    "bialgebra": ((("a bialgebra", (Bialgebra,)),),
                  lambda ins, kind, every: verify_bialgebra(ins[0], every)),
    "pafybe": ((_PRE, _MATRIX), lambda ins, kind, every: check_pafybe(
        ins[0], as_matrix(ins[1]), every)),
    "coboundary": ((_PRE, ("an r-element with r_prec and r_succ", (RPair,))),
                   lambda ins, kind, every: check_coboundary_conditions(
                       ins[0], ins[1], every)),
    "rota-baxter": ((("an algebra", (Algebra,)), _MATRIX),
                    lambda ins, kind, every: check_rota_baxter(
                        ins[0], as_matrix(ins[1]), every)),
    "o-operator": ((("a bimodule with variant 'anti-flexible'",
                     (AfBimodule,)), _MATRIX),
                   lambda ins, kind, every: check_o_operator(
                       OOperator(ins[0], as_matrix(ins[1])), every)),
    "cocycle-form": ((_PRE, _MATRIX), lambda ins, kind, every:
                     check_two_cocycle(ins[0], as_matrix(ins[1]), every)),
    "r-double": ((_PRE, _MATRIX), lambda ins, kind, every:
                 check_r_double_consistency(ins[0], as_matrix(ins[1]),
                                            every)),
}

CHECK_COMMANDS = tuple(_CHECKS)


def load_check_inputs(command, paths):
    """The parsed input files of a check command, after checking their
    number and what each one holds against the command's entry in
    _CHECKS; a mismatch is a FormatError naming the file."""
    expected = _CHECKS[command][0]
    if len(paths) != len(expected):
        raise FormatError("check %s reads %d input files, got %d"
                          % (command, len(expected), len(paths)))
    inputs = [load_file(p) for p in paths]
    for path, obj, (what, types) in zip(paths, inputs, expected):
        if not isinstance(obj, types):
            raise FormatError("check %s: %s is not %s file"
                              % (command, path, what))
    return inputs


def _dispatch_check(command, inputs, kind, all_failures):
    if command not in _CHECKS:
        raise FormatError("unknown check command %r" % (command,))
    return _CHECKS[command][1](inputs, kind, all_failures)


# ---------------------------------------------------------------------------
# random-element oracle
# ---------------------------------------------------------------------------

def _random_vector(rng, n):
    return [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(n)]


def random_element_oracle(kind, subject, trials=100, seed=0):
    """Compare the basis-tuple verdict of an identity check with its
    evaluation on pseudo-random rational triples; disagreement means the
    checker is broken (multilinearity makes the two equivalent) and aborts.
    """
    basis_verdict = check_identities(subject, kind).passed
    rng = random.Random(seed)
    n = subject.dimension
    random_verdict = True
    for _ in range(trials):
        x, y, z = (_random_vector(rng, n) for _ in range(3))
        for _label, res in identity_residuals(subject, kind, x, y, z):
            if not vec_is_zero(res):
                random_verdict = False
                break
        if not random_verdict:
            break
    if basis_verdict != random_verdict:
        raise AssertionError(
            "random-element oracle disagrees with the basis check "
            "(kind=%s, seed=%d): basis=%s random=%s — checker bug"
            % (kind, seed, basis_verdict, random_verdict))
    return {"kind": kind, "trials": trials, "seed": seed,
            "verdict": "pass" if basis_verdict else "fail",
            "agreement": True}


# ---------------------------------------------------------------------------
# bounded grid searches
# ---------------------------------------------------------------------------

SEARCH_TARGETS = ("rota-baxter", "pafybe-symmetric", "o-operator")


@dataclass(frozen=True)
class SearchSpec:
    """A bounded grid search.  The coefficient set keeps the first of equal
    values, in order, so every candidate of the grid is distinct."""
    target: str
    coefficient_set: tuple = (Fraction(-1), Fraction(0), Fraction(1))
    bound: int = 3

    def __post_init__(self):
        if self.target not in SEARCH_TARGETS:
            raise PreconditionError("SearchSpec: unknown target %r"
                                    % (self.target,))
        if not self.coefficient_set:
            raise PreconditionError("SearchSpec: empty coefficient set")
        object.__setattr__(self, "coefficient_set", tuple(dict.fromkeys(
            Fraction(c) for c in self.coefficient_set)))


def grid_search(spec: SearchSpec, subject):
    """Exhaustively enumerate candidate matrices with entries drawn from
    the coefficient set, in lexicographic order, and keep those that pass
    the module check for the target.  prepare() runs the check's
    precondition on the subject once, before the enumeration, and returns
    the test that runs only the check's core on each candidate.  Returns
    (found, report)."""
    coeffs = spec.coefficient_set
    if spec.target == "rota-baxter":
        n = subject.dimension
        if n > spec.bound:
            raise PreconditionError("grid_search: dimension %d exceeds the "
                                    "bound %d" % (n, spec.bound))
        nfree = n * n
        shape = [(i, j) for i in range(n) for j in range(n)]
        build = lambda vals: _fill_matrix(n, n, shape, vals)

        def prepare():
            require_anti_flexible(subject, "check_rota_baxter")
            return lambda m: rota_baxter_core(subject, m).passed
    elif spec.target == "pafybe-symmetric":
        n = subject.dimension
        if n > spec.bound:
            raise PreconditionError("grid_search: dimension %d exceeds the "
                                    "bound %d" % (n, spec.bound))
        shape = [(i, j) for i in range(n) for j in range(i, n)]
        nfree = len(shape)
        build = lambda vals: _fill_symmetric(n, shape, vals)

        def prepare():
            tensors = structure_tensors(subject)
            return lambda r: pafybe_core(tensors, r).passed
    elif spec.target == "o-operator":
        n = subject.base.dimension
        m = subject.space_dim
        if max(n, m) > spec.bound:
            raise PreconditionError("grid_search: dimensions (%d, %d) exceed "
                                    "the bound %d" % (n, m, spec.bound))
        nfree = n * m
        shape = [(i, j) for i in range(n) for j in range(m)]
        build = lambda vals: _fill_matrix(n, m, shape, vals)

        def prepare():
            require_af_bimodule(subject, "check_o_operator")
            return lambda t: o_operator_core(subject, t).passed
    else:
        raise PreconditionError("grid_search: unknown target %r"
                                % (spec.target,))
    size = len(coeffs) ** nfree
    if size > 10 ** 8:
        raise PreconditionError("grid_search: search space has %d candidates "
                                "(limit 10^8)" % size)
    accept = prepare()
    found = [cand for cand in map(build, itertools.product(coeffs,
                                                           repeat=nfree))
             if accept(cand)]
    report = {"format_version": FORMAT_VERSION, "target": spec.target,
              "candidates": size, "found": len(found),
              "coefficient_set": [_fmt(c) for c in coeffs]}
    return found, report


def search_results(target, found):
    """The candidates a grid search found, as the documents of their files:
    r-elements for pafybe-symmetric, linear maps for the other targets."""
    if target == "pafybe-symmetric":
        return [_emit(RElement(len(m), m)) for m in found]
    return [_emit(LinearMap(len(m), len(m[0]), m)) for m in found]


def _fill_matrix(rows, cols, shape, vals):
    m = [[Fraction(0)] * cols for _ in range(rows)]
    for (i, j), v in zip(shape, vals):
        m[i][j] = v
    return m


def _fill_symmetric(n, shape, vals):
    m = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), v in zip(shape, vals):
        m[i][j] = v
        m[j][i] = v
    return m
