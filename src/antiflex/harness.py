"""File format, checker dispatch, the random-element oracle, and bounded
grid searches.

Objects travel as JSON with every scalar a "p/q" string (never floats), so
exactness survives any toolchain.  Each kind of file is described once, by
its rows of _SCHEMA, which parse_file and serialize both read: they
round-trip exactly on canonical files, and unknown fields are rejected with
the offending path.
"""

from __future__ import annotations

import json
import os
import random
import re
import time
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import inf, lcm
from operator import attrgetter

from .algebra import Algebra, PreAlgebra, CheckReport, PreconditionError, \
    ALGEBRA_KINDS, PREALGEBRA_KINDS, _nested, check_identities, \
    from_associative, identity_residuals, induce_pre_from_form, \
    require_identities, require_matrix, require_square, structure_tensors
from .bialgebra import Bialgebra, verify_bialgebra
from .bimodule import AfBimodule, PreBimodule, check_af_bimodule, \
    check_pre_bimodule, semidirect_pre
from .coboundary import RPair, SPECIAL_CASES, _PAFYBE_TERMS, _numerators, \
    check_pafybe, check_coboundary_conditions, coboundary_bialgebra, \
    special_case_bialgebra
from .matched import AfMatchedPair, PreMatchedPair, build_af_double, \
    build_pre_double, check_af_matched, check_pre_matched
from .operators import OOperator, canonical_solution, check_rota_baxter, \
    check_o_operator, check_two_cocycle, check_r_double_consistency, \
    induced_pre_from_map, o_operator_numerators, regular_tensors, \
    require_af_bimodule, solution_from_o_operator
from .linalg import ONE, ZERO, vec_is_zero

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
        require_square("RElement", "r", self.r, self.dimension)
        object.__setattr__(self, "r", tuple(tuple(row) for row in self.r))


@dataclass(frozen=True)
class LinearMap:
    """A rows x cols matrix standing for a linear map in coordinates."""
    rows: int
    cols: int
    matrix: tuple

    def __post_init__(self):
        require_matrix("LinearMap", "matrix", self.matrix, self.rows,
                       self.cols)
        object.__setattr__(self, "matrix",
                           tuple(tuple(row) for row in self.matrix))


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

# the scalars serialize writes: an optional minus sign, ASCII digits, and
# optionally a slash and more digits
_SCALAR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# the scalars that make up most package-written files, each read as one
# shared Fraction (Fractions are immutable)
_COMMON = {"0": ZERO, "1": ONE, "-1": -ONE}


def parse_scalar(s, path):
    """The Fraction a "p/q" string of _SCALAR stands for; path names it in
    errors."""
    if not isinstance(s, str):
        raise FormatError("%s: scalar must be a \"p/q\" string, got %r"
                          % (path, s))
    common = _COMMON.get(s)
    if common is not None:
        return common
    match = _SCALAR.fullmatch(s)
    if match is not None:
        p, q = match.groups()
        try:
            return Fraction(int(p), int(q)) if q else Fraction(int(p))
        except (ValueError, ZeroDivisionError):
            pass    # past the digit limit of int(), or a zero denominator
    raise FormatError("%s: malformed scalar %r" % (path, s))


# ---------------------------------------------------------------------------
# the schema: one row per kind and variant, read by parse_file and serialize
# ---------------------------------------------------------------------------

# What a field holds: a positive int; the basis names (optional, as many as
# the "dimension" field says); an embedded structure of the kind named; or a
# tensor of scalars, as the tuple of the fields whose values are its
# extents.  An embedded field stands for its dimension, and a tensor over
# its basis is a family of matrices, one per basis vector.
_INT, _NAMES = "a positive integer", "basis names"
_CUBE, _SQUARE = ("dimension",) * 3, ("dimension",) * 2
_ON_BASE, _A_ON_B, _B_ON_A = ("base", "space_dim", "space_dim"), \
    ("A", "B", "B"), ("B", "A", "A")
_PRE_MAPS = ("ls", "rs", "lp", "rp")

# A row: the class, its "kind" and "variant" (None when the kind is written
# without one), the constructor taking the field values in order, each field
# as (JSON key, what it holds) in the order serialize writes them, and the
# attribute each key is written from where it is not the key itself.
_Row = namedtuple("_Row", "cls kind variant build fields attrs",
                  defaults=({},))
_SCHEMA = (
    _Row(Algebra, "algebra", None,
         lambda n, names, product: Algebra(n, product, names),
         (("dimension", _INT), ("basis_names", _NAMES),
          ("product", _CUBE))),
    _Row(PreAlgebra, "pre-algebra", None,
         lambda n, names, prec, succ: PreAlgebra(n, prec, succ, names),
         (("dimension", _INT), ("basis_names", _NAMES), ("prec", _CUBE),
          ("succ", _CUBE))),
    _Row(AfBimodule, "bimodule", "anti-flexible", AfBimodule,
         (("base", "algebra"), ("space_dim", _INT), ("l", _ON_BASE),
          ("r", _ON_BASE))),
    _Row(PreBimodule, "bimodule", "pre", PreBimodule,
         (("base", "pre-algebra"), ("space_dim", _INT))
         + tuple((k, _ON_BASE)
                 for k in ("l_succ", "r_succ", "l_prec", "r_prec"))),
    _Row(AfMatchedPair, "matched-pair", "anti-flexible", AfMatchedPair,
         (("A", "algebra"), ("B", "algebra"), ("lA", _A_ON_B),
          ("rA", _A_ON_B), ("lB", _B_ON_A), ("rB", _B_ON_A)),
         {"A": "algA", "B": "algB"}),
    _Row(PreMatchedPair, "matched-pair", "pre", PreMatchedPair,
         (("A", "pre-algebra"), ("B", "pre-algebra"))
         + tuple((k + "_A", _A_ON_B) for k in _PRE_MAPS)
         + tuple((k + "_B", _B_ON_A) for k in _PRE_MAPS),
         {"A": "palgA", "B": "palgB"}),
    _Row(Bialgebra, "bialgebra", None,
         lambda n, names, prec, succ, dprec, dsucc: Bialgebra(
             PreAlgebra(n, prec, succ, names), dprec, dsucc),
         (("dimension", _INT), ("basis_names", _NAMES), ("prec", _CUBE),
          ("succ", _CUBE), ("delta_prec", _CUBE), ("delta_succ", _CUBE)),
         {k: "palg." + k
          for k in ("dimension", "basis_names", "prec", "succ")}),
    _Row(RElement, "r-element", None, RElement,
         (("dimension", _INT), ("r", _SQUARE))),
    _Row(RPair, "r-element", None, lambda n, rp, rs: RPair(rp, rs),
         (("dimension", _INT), ("r_prec", _SQUARE), ("r_succ", _SQUARE))),
    _Row(LinearMap, "linear-map", None, LinearMap,
         (("rows", _INT), ("cols", _INT), ("matrix", ("rows", "cols")))),
)

# the rows of each kind; test_harness checks that _read tells them apart
_KINDS = {row.kind: [r for r in _SCHEMA if r.kind == row.kind]
          for row in _SCHEMA}
_ROWS = {row.cls: row for row in _SCHEMA}


def _read_tensor(data, extents, nouns, path, memo):
    """The nested lists of Fractions a tensor field holds; nouns[i] names
    what level i must hold, for the error when it does not.  memo maps the
    scalar strings already read in the tensor to their Fractions; a row of
    strings it holds is read in one pass, and any other through
    parse_scalar, which adds what it reads.  The path of an entry is
    formatted only when a level holds a fault: the level is then read
    again, entry by entry, each under its own path, up to the entry that
    raises."""
    n = extents[0]
    if not isinstance(data, list) or len(data) != n:
        raise FormatError("%s: expected %s" % (path, nouns[0] % n))
    leaf = len(extents) == 1
    if leaf:
        try:
            return list(map(memo.__getitem__, data))
        except (KeyError, TypeError):   # a new string, or not a string
            pass
    try:
        if leaf:
            row = [parse_scalar(x, path) for x in data]
            memo.update(zip(data, row))
            return row
        return [_read_tensor(x, extents[1:], nouns[1:], path, memo)
                for x in data]
    except FormatError:
        for i, x in enumerate(data):
            at = "%s[%d]" % (path, i)
            if leaf:
                parse_scalar(x, at)
            else:
                _read_tensor(x, extents[1:], nouns[1:], at, memo)
        raise


def _write_tensor(t, depth):
    """The nested lists of "p/q" strings of a tensor of depth levels.  Its
    scalars are ints and Fractions, as every class of _SCHEMA checks on
    construction, and str writes both in lowest terms."""
    if depth == 1:
        return list(map(str, t))
    return [_write_tensor(x, depth - 1) for x in t]


def _read_embedded(data, kind, path):
    """An algebra or pre-algebra embedded in another structure.  Its
    "kind", which the package writes, is optional but must name the
    expected structure."""
    if not isinstance(data, dict):
        raise FormatError(path + ": expected an embedded object")
    data = dict(data)
    got = data.pop("kind", kind)
    if got != kind:
        raise FormatError("%s.kind: expected %r, got %r" % (path, kind, got))
    return _read(kind, data, path)


def _read(kind, doc, path):
    """The object a document of the kind holds, read by its row: first the
    positive ints (every variant of a kind has the same ones), then the
    variant, then the embedded structures and tensors in written order, and
    the basis names last.  Every field is removed from doc; what remains,
    but "metadata", is an unknown field."""
    rows = _KINDS[kind]
    values = {}
    for key, what in rows[0].fields:
        if what is _INT:
            n = values[key] = doc.pop(key, None)
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise FormatError("%s.%s: expected a positive integer"
                                  % (path, key))
    if rows[0].variant is None:
        row = rows[0] if rows[0].fields[-1][0] in doc else rows[-1]
    else:
        variant = doc.pop("variant", None)
        row = next((r for r in rows if r.variant == variant), None)
        if row is None:
            raise FormatError("%s.variant: expected %s" % (path, " or ".join(
                repr(r.variant) for r in rows)))
    for key, what in sorted(row.fields, key=lambda f: f[1] is _NAMES):
        at = "%s.%s" % (path, key)
        if what in _KINDS:
            values[key] = _read_embedded(doc.pop(key, None), what, at)
        elif what is _NAMES:
            names, n = doc.pop(key, None), values["dimension"]
            if names is not None and (not isinstance(names, list) or len(
                    names) != n or not all(isinstance(s, str) for s in names)):
                raise FormatError("%s: expected %d strings" % (at, n))
            values[key] = tuple(names or ())
        elif what is not _INT:
            family = not isinstance(values[what[0]], int)
            nouns = ("%d matrices" if family else "%d slices", "%d rows",
                     "a list of length %d")[-len(what):]
            values[key] = _read_tensor(doc.pop(key, None), [
                v if isinstance(v, int) else v.dimension
                for v in map(values.get, what)], nouns, at, dict(_COMMON))
    doc.pop("metadata", None)
    if doc:
        raise FormatError("%s: unknown fields %s"
                          % (path, sorted(doc.keys())))
    return row.build(*[values[key] for key, _what in row.fields])


def _write(obj):
    """The document of an object, written by the row of its class."""
    row = _ROWS.get(type(obj))
    if row is None:
        raise FormatError("cannot serialize objects of type %s"
                          % type(obj).__name__)
    doc = {"kind": row.kind}
    if row.variant is not None:
        doc["variant"] = row.variant
    for key, what in row.fields:
        value = attrgetter(row.attrs.get(key, key))(obj)
        if what is _NAMES:
            value = list(value)
        elif what in _KINDS:
            value = _write(value)
        elif what is not _INT:
            value = _write_tensor(value, len(what))
        doc[key] = value
    return doc


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
    if not isinstance(kind, str) or kind not in _KINDS:
        raise FormatError("kind: unknown kind %r (expected one of %s)"
                          % (kind, sorted(_KINDS)))
    return _read(kind, doc, kind)


def load_file(path):
    with open(path, "rb") as fh:
        return parse_file(fh.read())


_ASCII = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _float(x):
    """A float as json writes it: NaN and the infinities by name."""
    if x != x:
        return "NaN"
    if x == inf:
        return "Infinity"
    if x == -inf:
        return "-Infinity"
    return float.__repr__(x)


def _encoded(value, indent):
    """The text json.dumps(value, indent=2) writes for value where its
    lines are indented by indent (a newline and spaces)."""
    if isinstance(value, str):
        return _ASCII(value)
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:    # a list of strings is encoded and joined in C calls
            items = ("," + inner).join(map(_ASCII, value))
        except TypeError:
            items = ("," + inner).join([_encoded(v, inner) for v in value])
        return "[" + inner + items + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_ASCII(k) + ": " + _encoded(v, inner)
                 for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(value).__name__)


def dumps(value):
    """json.dumps(value, indent=2), byte for byte, of a value made of dicts
    with string keys, lists, tuples, strings, numbers, bools and None: the
    format of every file and report the package writes.  json's C encoder
    writes every string, where json.dumps with an indent runs its
    pure-Python encoder."""
    return _encoded(value, "\n")


def serialize(obj) -> bytes:
    """Canonical JSON bytes for any parseable object; keys emitted in a
    fixed order, scalars in lowest terms."""
    doc = {"format_version": FORMAT_VERSION}
    doc.update(_write(obj))
    return (dumps(doc) + "\n").encode("utf-8")


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
    depth, inner = 1, res
    while inner and isinstance(inner[0], (list, tuple)):
        depth, inner = depth + 1, inner[0]
    return _write_tensor(res, depth)


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
    """Run a named check over parsed inputs and return a JSON-ready report
    (verdict, first witness, wall time)."""
    start = time.perf_counter()
    if command not in _CHECKS:
        raise FormatError("unknown check command %r" % (command,))
    rep = _run(_CHECKS[command], inputs, {"kind": kind}, all_failures)
    return report_to_json(command, rep, time.perf_counter() - start)


def run_construction(what, inputs, case, variant):
    """Build a named construction from parsed inputs: (primary output,
    secondary output or None)."""
    if what not in _CONSTRUCTIONS:
        raise FormatError("unknown construction %r" % (what,))
    out = _run(_CONSTRUCTIONS[what], inputs, {"case": case,
                                              "variant": variant})
    return out if isinstance(out, tuple) else (out, None)


def _run(row, inputs, options, *last):
    """Call the function of a row of _CHECKS or _CONSTRUCTIONS (of a
    triple, the one the class of the last input selects) with the inputs in
    file order, each one-matrix file as its matrix, then with the option
    the row names (its default where options hold None), then with last."""
    _files, run, *named = row
    if isinstance(run, tuple):
        cls, run, other = run
        run = run if isinstance(inputs[-1], cls) else other
    args = [x.r if isinstance(x, RElement) else x.matrix
            if isinstance(x, LinearMap) else x for x in inputs]
    for name, default in named:
        args.append(default if options[name] is None else options[name])
    return run(*args, *last)


# what an input file of a command must hold: its description, and the
# types parse_file gives for it
_ANY_ALGEBRA = ("an algebra or pre-algebra", (Algebra, PreAlgebra))
_ALGEBRA = ("an algebra", (Algebra,))
_PRE = ("a pre-algebra", (PreAlgebra,))
_AF_BIMODULE = ("a bimodule with variant 'anti-flexible'", (AfBimodule,))
_MATRIX = ("an r-element with one matrix r, or a linear-map",
           (RElement, LinearMap))

# each check command: (its input files, in order; the function run_check
# calls (see _run), or (a class, the function for a last input of that
# class, the function for any other); for a command with an option, (the
# option, its default))
_CHECKS = {
    "algebra": ((_ANY_ALGEBRA,), check_identities, ("kind", "anti-flexible")),
    "pre-algebra": ((_ANY_ALGEBRA,), check_identities,
                    ("kind", "pre-anti-flexible")),
    "bimodule": ((("a bimodule", (AfBimodule, PreBimodule)),),
                 (AfBimodule, check_af_bimodule, check_pre_bimodule)),
    "matched-pair": ((("a matched-pair", (AfMatchedPair, PreMatchedPair)),),
                     (AfMatchedPair, check_af_matched, check_pre_matched)),
    "bialgebra": ((("a bialgebra", (Bialgebra,)),), verify_bialgebra),
    "pafybe": ((_PRE, _MATRIX), check_pafybe),
    "coboundary": ((_PRE, ("an r-element with r_prec and r_succ", (RPair,))),
                   check_coboundary_conditions),
    "rota-baxter": ((_ALGEBRA, _MATRIX), check_rota_baxter),
    "o-operator": ((_AF_BIMODULE, _MATRIX), lambda bm, t, every:
                   check_o_operator(OOperator(bm, t), every)),
    "cocycle-form": ((_PRE, _MATRIX), check_two_cocycle),
    "r-double": ((_PRE, _MATRIX), check_r_double_consistency),
}

CHECK_COMMANDS = tuple(_CHECKS)


def _coboundary(palg, r, case):
    """The coboundary bialgebra of an r-pair, or of a single matrix r under
    the special case named."""
    if isinstance(r, RPair):
        return coboundary_bialgebra(palg, r)
    if case is None:
        raise FormatError("a single-matrix r-element needs --case "
                          "(one of %s)" % (SPECIAL_CASES,))
    return special_case_bialgebra(palg, r, case)


def _solution(double, r):
    """A constructed r as its file, with the double carrying it."""
    return RElement(double.dimension, r), double


# each construction, as the checks; its function gives the output, or the
# pair (primary output, secondary output)
_CONSTRUCTIONS = {
    "semidirect": ((("a bimodule with variant 'pre'", (PreBimodule,)),),
                   semidirect_pre),
    "double": ((("a matched-pair", (AfMatchedPair, PreMatchedPair)),),
               (AfMatchedPair, build_af_double, build_pre_double)),
    "coboundary": ((_PRE, ("an r-element or a linear-map",
                           (RPair, RElement, LinearMap))), _coboundary,
                   ("case", None)),
    "canonical-r": ((_PRE,), lambda palg: _solution(
        *canonical_solution(palg))),
    "from-o-operator": ((_AF_BIMODULE, _MATRIX), lambda bm, t: _solution(
        *solution_from_o_operator(OOperator(bm, t)))),
    "from-form": ((_ALGEBRA, _MATRIX), induce_pre_from_form),
    "from-associative": ((_ALGEBRA,), from_associative, ("variant", None)),
    "from-rb": ((_ALGEBRA, _MATRIX), induced_pre_from_map),
}

CONSTRUCTIONS = tuple(_CONSTRUCTIONS)

# the oracle's subject file, as in _CHECKS, for each identity kind
_ORACLE = dict.fromkeys(ALGEBRA_KINDS + PREALGEBRA_KINDS, ((_ANY_ALGEBRA,),))


def load_inputs(verb, command, paths):
    """The parsed input files of a command, "check", "construct", "search"
    or "oracle" by verb, after checking their number and what each one
    holds against its entry in _CHECKS, _CONSTRUCTIONS, _SEARCHES or
    _ORACLE; a mismatch is a FormatError naming the command and the
    file."""
    expected = {"check": _CHECKS, "construct": _CONSTRUCTIONS,
                "search": _SEARCHES, "oracle": _ORACLE}[verb][command][0]
    command = "%s %s" % (verb, command)
    if len(paths) != len(expected):
        raise FormatError("%s reads %d input files, got %d"
                          % (command, len(expected), len(paths)))
    inputs = [load_file(p) for p in paths]
    for path, obj, (what, types) in zip(paths, inputs, expected):
        if not isinstance(obj, types):
            raise FormatError("%s: %s is not %s file" % (command, path, what))
    return inputs


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
    At least one trial must run: with none, nothing could disagree.
    """
    if type(trials) is not int or trials < 1:
        raise PreconditionError("random_element_oracle: trials must be a "
                                "positive int, got %r" % (trials,))
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

def _pafybe_residual(tensors):
    """r -> the flat int PAFYBE residual of _numerators on tensors."""
    return lambda r: _numerators(tensors, _PAFYBE_TERMS, {"r": r})[0]


# each search target: (its subject file, as in _CHECKS; the precondition
# of its check on the subject, or None; subject -> the function taking an
# int candidate to its flat residual)
_SEARCHES = {
    "rota-baxter": ((_ALGEBRA,), partial(
        require_identities, "check_rota_baxter", kind="anti-flexible"),
        lambda alg: o_operator_numerators(regular_tensors(alg))),
    "pafybe-symmetric": ((_PRE,), None, lambda palg: _pafybe_residual(
        structure_tensors(palg))),
    "o-operator": ((_AF_BIMODULE,), partial(
        require_af_bimodule, caller="check_o_operator"),
        lambda bm: o_operator_numerators(structure_tensors(bm))),
}

SEARCH_TARGETS = tuple(_SEARCHES)


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
        for i, c in enumerate(self.coefficient_set):
            if type(c) is not Fraction and type(c) is not int:
                raise PreconditionError("SearchSpec: coefficient_set[%d] is "
                                        "%r, not an int or Fraction" % (i, c))
        if type(self.bound) is not int or self.bound < 1:
            raise PreconditionError("SearchSpec: bound is %r, not a positive "
                                    "int" % (self.bound,))
        object.__setattr__(self, "coefficient_set", tuple(dict.fromkeys(
            Fraction(c) for c in self.coefficient_set)))


def _quadratic_form(residual, free):
    """(squares, cross, closing) of a flat int residual homogeneous of
    degree 2 in free int variables, by polarization (see grid_search):
    squares[k] is Q_k = residual(e_k); cross[k] lists (u, the nonzeros
    (at, x) of B_uk = residual(e_u + e_k) - Q_u - Q_k) for each u < k with
    B_uk not zero; and closing[k] lists the entries that no Q_j and no B_uj
    with j > k touches, in order."""
    unit = lambda *us: residual([int(v in us) for v in range(free)])
    squares = [unit(k) for k in range(free)]
    cross = [[] for _ in range(free)]
    last = [-1] * len(squares[0])   # the last depth that touches each entry
    for k in range(free):
        for u in range(k):
            nonzeros = [(at, x - a - b) for at, (x, a, b) in enumerate(zip(
                unit(u, k), squares[u], squares[k])) if x != a + b]
            if nonzeros:
                cross[k].append((u, nonzeros))
                for at, _x in nonzeros:
                    last[at] = k
        for at, q in enumerate(squares[k]):
            if q:
                last[at] = k
    closing = [[at for at, j in enumerate(last) if j <= k]
               for k in range(free)]
    return squares, cross, closing


def _grid_residuals(form, values):
    """(point, residual of the form) at the points of values**free, in
    itertools.product order, walked depth first: entry k = x adds
    x * (x * Q_k + sum_{u<k} x_u B_uk) to its prefix's residual, the sum
    over u taken once per prefix.  An entry of closing[k] is final once
    entry k is set, so a prefix with one that is not zero is not walked
    further: every point below it has that nonzero entry.  point is one
    list, changed in place."""
    squares, cross, closing = form
    free = len(squares)
    point = [0] * free
    partial = [[0] * len(squares[0])] + [None] * free
    linear = partial[:free]
    nexts = [0] * free      # the index in values of each entry's next value
    k = 0
    while k >= 0:
        if nexts[k] == len(values):
            nexts[k] = 0
            k -= 1
            continue
        x = point[k] = values[nexts[k]]
        nexts[k] += 1
        at = partial[k]
        if x:
            at = [p + x * (x * q + l)
                  for p, q, l in zip(at, squares[k], linear[k])]
        if k + 1 == free:
            yield point, at
            continue
        if any(map(at.__getitem__, closing[k])):
            continue
        k += 1
        partial[k] = at
        line = [0] * len(at)
        for u, nonzeros in cross[k]:
            xu = point[u]
            if xu:
                for i, b in nonzeros:
                    line[i] += xu * b
        linear[k] = line


def grid_search(spec: SearchSpec, subject):
    """Exhaustively enumerate candidate matrices with entries drawn from
    the coefficient set, in lexicographic order, and keep those that pass
    the check for the target.  Returns (found, report).

    Candidates are enumerated in ints, as the coefficient set times its
    lcd; only the matrices kept are divided back.  The int residual K of
    each check is homogeneous of degree 2 in the F free entries, so after
    the precondition it is compiled once, in F * (F + 1) / 2 kernel runs,
    by polarization: Q_k = K(e_k), B_uk = K(e_u + e_k) - Q_u - Q_k, and
    exactly K(x) = sum_k x_k**2 Q_k + sum_{u<k} x_u x_k B_uk.  The grid is
    walked depth first in itertools.product order, each candidate's whole
    residual one update of its prefix's, and kept when it is zero.  A
    prefix is not walked further once an entry that no later Q_j or B_uj
    touches is nonzero: that entry is nonzero in the residual of every
    candidate below it.  The report's "visited" counts the candidates whose
    whole residual was evaluated; "candidates" is the size of the grid."""
    inputs, precondition, residual_of = _SEARCHES[spec.target]
    ((what, types),) = inputs
    if not isinstance(subject, types):
        raise PreconditionError("grid_search: a %s search needs %s, not %s"
                                % (spec.target, what,
                                   type(subject).__name__))
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
        matrix = lambda vals: _nested(vals, (n, m))
    size = len(coeffs) ** len(shape)
    if size > 10 ** 8:
        raise PreconditionError("grid_search: search space has %d candidates "
                                "(limit 10^8)" % size)
    if precondition is not None:
        precondition(subject)
    residual = residual_of(subject)
    form = _quadratic_form(lambda vals: residual(matrix(vals)), len(shape))
    scale = lcm(*(c.denominator for c in coeffs))
    found, visited = [], 0
    for point, at in _grid_residuals(form, [int(c * scale) for c in coeffs]):
        visited += 1
        if not any(at):
            found.append(matrix([Fraction(v, scale) for v in point]))
    report = {"format_version": FORMAT_VERSION, "target": spec.target,
              "candidates": size, "visited": visited, "found": len(found),
              "coefficient_set": list(map(str, coeffs))}
    return found, report


def search_results(target, found):
    """The candidates a grid search found, as the documents of their files:
    r-elements for pafybe-symmetric, linear maps for the other targets."""
    if target == "pafybe-symmetric":
        return [_write(RElement(len(m), m)) for m in found]
    return [_write(LinearMap(len(m), len(m[0]), m)) for m in found]


def _fill_symmetric(n, shape, vals):
    m = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), v in zip(shape, vals):
        m[i][j] = v
        m[j][i] = v
    return m
