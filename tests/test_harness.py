import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiflex.algebra import ALGEBRA_KINDS, PREALGEBRA_KINDS, Algebra, \
    PreAlgebra, PreconditionError, from_associative, identity_residuals
from antiflex.bialgebra import Bialgebra, dual_products_from_comult
from antiflex.bimodule import AfBimodule, regular_af_bimodule, \
    regular_pre_bimodule
from antiflex import harness
from antiflex.cli import main
from antiflex.coboundary import RPair, check_pafybe, special_case_bialgebra, \
    special_case_rpair
from antiflex.matched import AfMatchedPair, dual_pre_matched, \
    standard_dual_matched
from antiflex.operators import OOperator, assembled_double, \
    canonical_solution, check_o_operator, check_rota_baxter, \
    induced_pre_from_map
from antiflex.harness import (
    CHECK_COMMANDS, CORPUS_DIR, SEARCH_TARGETS, FormatError, LinearMap,
    RElement, SearchSpec, corpus_names,
    grid_search, load_file, parse_file, random_element_oracle,
    run_check, save_file, serialize,
)
from antiflex.linalg import eye, vec_is_zero, zeros_mat, zeros_t3

import harness_reference
from bialgebra_reference import bialgebra_condition_residuals
from helpers import CORPUS, DIM2_PRE, bialgebra_pairs, bump_t3, \
    mat_is_zero, split_bialgebra


def test_corpus_round_trip_byte_identical():
    for name in corpus_names():
        path = os.path.join(CORPUS_DIR, name + ".json")
        raw = open(path, "rb").read()
        assert serialize(parse_file(raw)) == raw


def test_scalar_canonicalization():
    doc = {"format_version": 1, "kind": "linear-map", "rows": 1, "cols": 1,
           "matrix": [["2/4"]]}
    obj = parse_file(json.dumps(doc))
    assert obj.matrix[0][0] == Fraction(1, 2)
    assert b'"1/2"' in serialize(obj)


def test_malformed_scalar_diagnostic():
    doc = {"format_version": 1, "kind": "linear-map", "rows": 1, "cols": 1,
           "matrix": [["1/0"]]}
    with pytest.raises(FormatError, match="matrix"):
        parse_file(json.dumps(doc))


def test_tensor_errors_name_the_faulty_entry():
    # the exact text of a fault deep in a tensor, whose path is formatted
    # only when the fault is found
    base = json.loads(serialize(CORPUS["m2"]))

    def message(edit):
        doc = json.loads(json.dumps(base))
        edit(doc["product"])
        with pytest.raises(FormatError) as exc:
            parse_file(json.dumps(doc))
        return str(exc.value)

    def bad_scalar(t):
        t[1][0][1] = "x"

    def long_row(t):
        t[1][0].append("0")

    def short_plane(t):
        t[2].pop()
    assert message(bad_scalar) == \
        "algebra.product[1][0][1]: malformed scalar 'x'"
    assert message(long_row) == \
        "algebra.product[1][0]: expected a list of length 4"
    assert message(short_plane) == "algebra.product[2]: expected 4 rows"


def test_scalars_are_only_what_serialize_writes():
    def parse(scalar):
        return parse_file(json.dumps({
            "format_version": 1, "kind": "linear-map", "rows": 1,
            "cols": 2, "matrix": [["0", scalar]]}))

    for scalar, value in (("7", 7), ("-3/4", Fraction(-3, 4)),
                          ("6/8", Fraction(3, 4)), ("-0", 0)):
        assert parse(scalar).matrix[0][1] == value
    for scalar in ("1e3", "0.5", " 1/2 ", "1_000", "+1", "1/-2", "1/",
                   "/2", "", "1\n", "\u0661", "9" * 5000):
        with pytest.raises(FormatError,
                           match=r"linear-map\.matrix\[0\]\[1\]: malformed"):
            parse(scalar)


def test_format_version_must_be_the_int_one():
    doc = {"kind": "linear-map", "rows": 1, "cols": 1, "matrix": [["1"]]}
    assert parse_file(json.dumps(dict(doc, format_version=1))).rows == 1
    for version in (True, 1.0, "1", 2, None):
        with pytest.raises(FormatError, match="format_version"):
            parse_file(json.dumps(dict(doc, format_version=version)))


def test_truncated_payload_names_tensor():
    raw = json.loads(open(os.path.join(CORPUS_DIR, "qt2.json")).read())
    raw["product"] = raw["product"][:1]
    with pytest.raises(FormatError, match="product"):
        parse_file(json.dumps(raw))


def test_unknown_kind_and_fields_rejected():
    with pytest.raises(FormatError, match="kind"):
        parse_file(json.dumps({"format_version": 1, "kind": "mystery"}))
    raw = json.loads(open(os.path.join(CORPUS_DIR, "q1.json")).read())
    raw["extra"] = 1
    with pytest.raises(FormatError, match="extra"):
        parse_file(json.dumps(raw))


def _documents_of_every_kind():
    """Package-written JSON text of one small structure of each kind, and
    of each variant of the kinds that have them, and of an anti-flexible
    bimodule and matched pair (with zero actions) whose extents all differ,
    so that no extent of a family can stand in for another."""
    palg = DIM2_PRE[0]
    qt2, q1 = CORPUS["qt2"], CORPUS["q1"]
    qt2_on_q1, q1_on_qt2 = [zeros_mat(1)] * 2, [zeros_mat(2)]
    objs = [qt2, palg, regular_af_bimodule(qt2),
            regular_pre_bimodule(palg), standard_dual_matched(palg, palg),
            dual_pre_matched(palg, palg), split_bialgebra("q1", "one"),
            RElement(2, eye(2)), RPair(eye(2), eye(2)),
            LinearMap(1, 2, [[Fraction(1, 2), Fraction(0)]]),
            AfBimodule(q1, 2, [zeros_mat(2)], [zeros_mat(2)]),
            AfMatchedPair(qt2, q1, qt2_on_q1, qt2_on_q1, q1_on_qt2,
                          q1_on_qt2)]
    return [serialize(obj).decode() for obj in objs]


DOCUMENTS = _documents_of_every_kind()


def _paths(node, at=()):
    """Every path into a JSON tree, the root included."""
    yield at
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, at + (key,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10 ** 12)
    | st.floats(allow_nan=False) | st.text(max_size=4)
    | st.sampled_from(["1/0", "1/2", "-0", "1e3", "0x1", "algebra",
                       "pre-algebra", "bimodule", "matched-pair",
                       "bialgebra", "r-element", "linear-map", "pre",
                       "anti-flexible"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4)


def _outcomes(raw):
    """What parse_file and the reference reader each give on raw: the
    bytes of the object it holds, or the message of the FormatError."""
    def outcome(module):
        try:
            return module.serialize(module.parse_file(raw))
        except FormatError as exc:
            return "FormatError: %s" % exc
    return outcome(harness_reference), outcome(harness)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DOCUMENTS), st.data())
def test_parse_file_fuzz_fails_only_with_format_error(text, data):
    # a truncated document, or one with a value of another type (or of
    # another kind, or removed) anywhere in its tree, parses or raises
    # FormatError, never anything else, and gives the reference's outcome
    cut = data.draw(st.integers(0, len(text.rstrip()) - 1))
    for raw in (text[:cut], text[:cut].encode()):
        expected, got = _outcomes(raw)
        assert got == expected and got.startswith("FormatError")
    doc = json.loads(text)
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if path and data.draw(st.booleans()):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
    else:
        value = data.draw(_JSON_VALUES)
        if not path:
            doc = value
        else:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
    expected, got = _outcomes(json.dumps(doc))
    assert got == expected


_DELETE, _ADD = object(), object()
_WRONG_VALUES = (None, True, 0, -1, 2, 1.5, "x", "1/0", [], ["1"], [[]], {},
                 "algebra", "pre")


def _one_edit_away(text):
    """Every document one edit away from text: a key or an entry deleted,
    an unknown key added to an object, or a value replaced by one of
    _WRONG_VALUES."""
    for path in _paths(json.loads(text)):
        for edit in (_DELETE, _ADD) + _WRONG_VALUES:
            box = [json.loads(text)]
            parent, key = box, 0
            for step in path:
                parent, key = parent[key], step
            if edit is _DELETE and path:
                del parent[key]
            elif edit is _ADD and isinstance(parent[key], dict):
                parent[key]["unknown"] = "1"
            elif edit is not _DELETE and edit is not _ADD:
                parent[key] = edit
            else:
                continue
            yield json.dumps(box[0])


def test_parse_file_matches_reference_one_edit_from_every_document():
    # the schema reader gives the hand-written reader's outcome, the same
    # object or the same FormatError message, on every document one edit
    # away from a package-written one
    for text in DOCUMENTS:
        for raw in _one_edit_away(text):
            expected, got = _outcomes(raw)
            assert got == expected, raw


def test_serialize_matches_reference():
    # the schema writer gives the hand-written writer's bytes on structures
    # of every kind and variant built by the package
    objs = [RPair(eye(3), zeros_mat(3)), special_case_rpair(eye(2), "two"),
            LinearMap(2, 3, [[Fraction(1, 3)] * 3, [Fraction(-2)] * 3])]
    for alg in CORPUS.values():
        objs += [alg, regular_af_bimodule(alg)]
        for split in ("succ-left", "prec-right"):
            palg = from_associative(alg, split)
            double, r = canonical_solution(palg)
            objs += [palg, regular_pre_bimodule(palg), double,
                     RElement(double.dimension, r)]
            for case in ("one", "two"):
                bialg = special_case_bialgebra(double, r, case)
                dual = dual_products_from_comult(bialg.delta_prec,
                                                 bialg.delta_succ)
                objs += [bialg, standard_dual_matched(double, dual),
                         dual_pre_matched(double, dual)]
    for obj in objs:
        assert serialize(obj) == harness_reference.serialize(obj), obj


def test_round_trip_all_kinds(tmp_path):
    objs = [
        CORPUS["qt2"],
        DIM2_PRE[0],
        RElement(2, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]),
        RPair([[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]],
              [[Fraction(0), Fraction(0)], [Fraction(-1), Fraction(3)]]),
        LinearMap(2, 3, [[Fraction(1)] * 3, [Fraction(0)] * 3]),
    ]
    for i, obj in enumerate(objs):
        p = tmp_path / ("obj%d.json" % i)
        save_file(p, obj)
        back = load_file(p)
        assert serialize(back) == serialize(obj)


def test_run_check_report_shape_and_determinism():
    rep1 = run_check("algebra", [CORPUS["t3"]], kind="anti-flexible")
    assert rep1["verdict"] == "pass" and rep1["witness"] is None
    bad = Algebra(2, bump_t3(CORPUS["t3"].product, 0, 1, 0))
    rep2 = run_check("algebra", [bad], kind="associative")
    assert rep2["verdict"] == "fail"
    assert rep2["witness"]["indices"] and rep2["witness"]["residual"]
    rep3 = run_check("algebra", [bad], kind="associative")
    for key in ("verdict", "identity", "witness", "failure_count"):
        assert rep2[key] == rep3[key]


def test_runners_read_the_matrix_of_a_payload_file():
    # run_check and run_construction, handed RElement and LinearMap
    # objects, give what the library call on their matrices gives
    alg, palg = CORPUS["qt2"], DIM2_PRE[0]
    double, r = canonical_solution(palg)
    bm = regular_af_bimodule(alg)
    found, _ = grid_search(SearchSpec("rota-baxter"), alg)
    maps = [found[1], bump_t3([found[1]], 0, 1, 0)[0], eye(2)]
    rs = [r, bump_t3([r], 0, 0, 1)[0], zeros_mat(4)]

    def files(m):
        return RElement(len(m), m), LinearMap(len(m), len(m[0]), m)

    def json_of(command, report):
        return dict(harness.report_to_json(command, report),
                    wall_time_ms=None)
    checks = [("pafybe", double, rs, check_pafybe),
              ("rota-baxter", alg, maps, check_rota_baxter),
              ("o-operator", bm, maps,
               lambda bm, t, every: check_o_operator(OOperator(bm, t),
                                                     every))]
    verdicts = set()
    for command, subject, matrices, check in checks:
        for m in matrices:
            want = check(subject, m, True)
            verdicts.add((command, want.passed))
            for payload in files(m):
                got = run_check(command, [subject, payload],
                                all_failures=True)
                assert dict(got, wall_time_ms=None) == json_of(command, want)
    assert len(verdicts) == 6
    for m in maps:
        for payload in files(m):
            out, secondary = harness.run_construction(
                "from-rb", [alg, payload], None, None)
            assert secondary is None
            assert serialize(out) == serialize(induced_pre_from_map(alg, m))
    for case in ("one", "two"):
        for payload in files(r):
            out, secondary = harness.run_construction(
                "coboundary", [double, payload], case, None)
            assert secondary is None
            assert serialize(out) == serialize(special_case_bialgebra(
                double, r, case))
    # an input of neither class reaches the second function of a row that
    # selects by class, which names the kind it reads
    for run, message in (
            (lambda: run_check("bimodule", [alg]),
             "check_pre_bimodule: expected PreBimodule, got Algebra"),
            (lambda: harness.run_construction("double", [alg], None, None),
             "build_pre_double: expected PreMatchedPair, got Algebra")):
        with pytest.raises(PreconditionError) as info:
            run()
        assert str(info.value) == message


def test_random_element_oracle_agreement():
    rep = random_element_oracle("associative", CORPUS["m2"], trials=50,
                                seed=7)
    assert rep["verdict"] == "pass" and rep["agreement"]
    bad = Algebra(2, bump_t3(CORPUS["t3"].product, 0, 1, 0))
    rep = random_element_oracle("associative", bad, trials=50, seed=7)
    assert rep["verdict"] == "fail" and rep["agreement"]
    zero = Algebra(2, zeros_t3(2))
    assert random_element_oracle("anti-flexible", zero)["verdict"] == "pass"


def test_grid_search_rota_baxter_finds_shift():
    found, report = grid_search(SearchSpec("rota-baxter", bound=2),
                                CORPUS["t3"])
    assert report["candidates"] == 81
    shift = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]]
    assert shift in found


def test_grid_search_superset_coefficients():
    small, _ = grid_search(SearchSpec("rota-baxter", bound=2), CORPUS["t3"])
    coeffs = tuple(Fraction(c) for c in (-1, 0, 1, 2))
    large, _ = grid_search(SearchSpec("rota-baxter", coeffs, 2),
                           CORPUS["t3"])
    for m in small:
        assert m in large


def test_grid_search_dim1_zero_algebra_all_pass():
    zero1 = Algebra(1, zeros_t3(1))
    from antiflex.algebra import PreAlgebra
    palg = PreAlgebra(1, zeros_t3(1), zeros_t3(1))
    found, report = grid_search(SearchSpec("pafybe-symmetric", bound=1), palg)
    assert report["candidates"] == 3 and len(found) == 3
    assert zero1.dimension == 1


def test_grid_search_refuses_large_space():
    big = tuple(Fraction(i) for i in range(60))
    with pytest.raises(PreconditionError, match="candidates"):
        grid_search(SearchSpec("rota-baxter", big, 3), CORPUS["ut2"])


def _corpus_path(name):
    return os.path.join(CORPUS_DIR, name + ".json")


def test_cli_check_exit_codes(tmp_path, capsys):
    assert main(["check", "algebra", "--kind", "anti-flexible",
                 _corpus_path("t3")]) == 0
    bad = Algebra(2, bump_t3(CORPUS["t3"].product, 0, 1, 0))
    p = tmp_path / "bad.json"
    save_file(p, bad)
    assert main(["check", "algebra", "--kind", "associative", str(p)]) == 1
    assert main(["check", "algebra", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_cli_construct_and_check_chain(tmp_path, capsys):
    pre = tmp_path / "pre.json"
    assert main(["construct", "from-associative", _corpus_path("t3"),
                 "--variant", "succ-left", "-o", str(pre)]) == 0
    assert main(["check", "pre-algebra", str(pre)]) == 0
    r = tmp_path / "r.json"
    dbl = tmp_path / "double.json"
    assert main(["construct", "canonical-r", str(pre), "-o", str(r),
                 "--secondary", str(dbl)]) == 0
    assert main(["check", "pafybe", str(dbl), str(r)]) == 0
    # the canonical pairing is its own inverse, so r doubles as the form
    assert main(["check", "cocycle-form", str(dbl), str(r)]) == 0
    capsys.readouterr()


def test_cli_oracle_and_search(tmp_path, capsys):
    assert main(["oracle", "associative", _corpus_path("qt2"),
                 "--trials", "20"]) == 0
    out = tmp_path / "found.json"
    assert main(["search", "rota-baxter", _corpus_path("t3"),
                 "--bound", "2", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["found"] == len(doc["results"]) > 0
    capsys.readouterr()


def test_round_trip_bimodules_and_matched_pairs():
    # the embedded algebras carry their "kind"; parsing accepts it
    palg = from_associative(CORPUS["qt2"], "succ-left")
    objs = [regular_af_bimodule(CORPUS["ut2"]), regular_pre_bimodule(palg),
            standard_dual_matched(palg, palg), dual_pre_matched(palg, palg)]
    for obj in objs:
        raw = serialize(obj)
        assert b'"kind": "algebra"' in raw or b'"kind": "pre-algebra"' in raw
        assert serialize(parse_file(raw)) == raw


def test_embedded_kind_must_name_the_structure():
    doc = json.loads(serialize(regular_af_bimodule(CORPUS["t3"])))
    doc["base"]["kind"] = "pre-algebra"
    with pytest.raises(FormatError, match=r"bimodule\.base\.kind"):
        parse_file(json.dumps(doc))
    doc = json.loads(serialize(dual_pre_matched(DIM2_PRE[0], DIM2_PRE[0])))
    doc["B"]["kind"] = "algebra"
    with pytest.raises(FormatError, match=r"matched-pair\.B\.kind"):
        parse_file(json.dumps(doc))


def test_cli_checks_package_written_bimodule(tmp_path, capsys):
    bm = tmp_path / "bimodule.json"
    zero = tmp_path / "zero.json"
    save_file(bm, regular_af_bimodule(CORPUS["ut2"]))
    save_file(zero, LinearMap(3, 3, [[Fraction(0)] * 3 for _ in range(3)]))
    assert main(["check", "bimodule", str(bm)]) == 0
    assert main(["check", "o-operator", str(bm), str(zero)]) == 0
    capsys.readouterr()


def test_cli_json_wall_time_is_float_ms(capsys):
    assert main(["check", "algebra", _corpus_path("q1"), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert isinstance(rep["wall_time_ms"], float)
    assert rep["wall_time_ms"] > 0


def test_cli_search_repeated_coefficients(tmp_path, capsys):
    docs = []
    for coeffs in ("0,1,1", "0,1"):
        out = tmp_path / ("found-%d.json" % len(docs))
        assert main(["search", "rota-baxter", _corpus_path("t3"),
                     "--coeffs", coeffs, "-o", str(out)]) == 0
        docs.append(json.loads(out.read_text()))
    assert docs[0] == docs[1]
    assert docs[0]["report"]["candidates"] == 16
    assert "workers" not in docs[0]["report"]
    assert "seed" not in docs[0]["report"]
    capsys.readouterr()


def test_cli_search_coeffs_with_a_leading_minus(tmp_path, capsys):
    # a coefficient list that starts with a minus sign is the value of
    # --coeffs whether it is attached with = or given as the next argument
    subject = tmp_path / "pre.json"
    save_file(subject, DIM2_PRE[0])
    outputs = []
    for args in (["--coeffs", "-1,0,1"], ["--coeffs=-1,0,1"],
                 ["--coeffs", "-1/2,0,1"], ["--coeffs=-1/2,0,1"]):
        out = tmp_path / ("found-%d.json" % len(outputs))
        assert main(["search", "pafybe-symmetric", str(subject), *args,
                     "-o", str(out)]) == 0
        outputs.append((capsys.readouterr().out, out.read_text()))
    assert outputs[0] == outputs[1] and outputs[2] == outputs[3]
    assert outputs[0] != outputs[2]
    assert json.loads(outputs[0][1])["report"]["found"] > 0
    with pytest.raises(SystemExit) as exc:
        main(["search", "pafybe-symmetric", str(subject), "--coeffs"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def _grid(shape, coeffs, rows, cols, symmetric=False):
    """Every candidate of a grid, in the order grid_search enumerates it."""
    for vals in product(coeffs, repeat=len(shape)):
        m = [[Fraction(0)] * cols for _ in range(rows)]
        for (i, j), v in zip(shape, vals):
            m[i][j] = v
            if symmetric:
                m[j][i] = v
        yield m


def test_grid_search_matches_public_checkers():
    coeffs = (Fraction(-1), Fraction(0), Fraction(1))
    full = [(i, j) for i in range(2) for j in range(2)]
    upper = [(i, j) for i in range(2) for j in range(i, 2)]
    for name in ("qt2", "t3"):
        alg = CORPUS[name]
        found, _ = grid_search(SearchSpec("rota-baxter", coeffs, 2), alg)
        assert found == [m for m in _grid(full, coeffs, 2, 2)
                         if check_rota_baxter(alg, m).passed]
        bm = regular_af_bimodule(alg)
        found, _ = grid_search(SearchSpec("o-operator", coeffs, 2), bm)
        assert found == [t for t in _grid(full, coeffs, 2, 2)
                         if check_o_operator(OOperator(bm, t)).passed]
    for palg in DIM2_PRE:
        found, _ = grid_search(SearchSpec("pafybe-symmetric", coeffs, 2),
                               palg)
        assert found == [r for r in _grid(upper, coeffs, 2, 2, True)
                         if check_pafybe(palg, r).passed]


def test_grid_search_precondition_errors():
    bad = Algebra(2, bump_t3(CORPUS["t3"].product, 0, 1, 0))
    with pytest.raises(PreconditionError) as direct:
        check_rota_baxter(bad, [[Fraction(0)] * 2 for _ in range(2)])
    with pytest.raises(PreconditionError) as searched:
        grid_search(SearchSpec("rota-baxter", bound=2), bad)
    assert str(searched.value) == str(direct.value)
    assert str(direct.value).startswith(
        "check_rota_baxter: base fails the anti-flexible check; witness ")
    regular = regular_af_bimodule(CORPUS["t3"])
    l = [[list(row) for row in m] for m in regular.l]
    l[0][0][0] += 1
    bm = AfBimodule(regular.base, 2, l, regular.r)
    with pytest.raises(PreconditionError) as direct:
        check_o_operator(OOperator(bm, [[Fraction(0)] * 2] * 2))
    with pytest.raises(PreconditionError) as searched:
        grid_search(SearchSpec("o-operator", bound=2), bm)
    assert str(searched.value) == str(direct.value)
    assert str(direct.value).startswith(
        "check_o_operator: the bimodule fails its check; witness ")


def test_bool_dimension_rejected():
    raw = json.loads(open(os.path.join(CORPUS_DIR, "q1.json")).read())
    raw["dimension"] = True
    with pytest.raises(FormatError, match=r"algebra\.dimension: expected a "
                                          r"positive integer"):
        parse_file(json.dumps(raw))
    doc = {"format_version": 1, "kind": "linear-map", "rows": 1,
           "cols": True, "matrix": [["1"]]}
    with pytest.raises(FormatError, match=r"linear-map\.cols"):
        parse_file(json.dumps(doc))


def _failure_count(argv, capsys):
    """Run a failing CLI check with --all-witnesses --json and return its
    reported failure_count."""
    assert main(argv + ["--all-witnesses", "--json"]) == 1
    return json.loads(capsys.readouterr().out)["failure_count"]


def test_cli_all_witnesses_rota_baxter(tmp_path, capsys):
    # the identity map fails B(x)B(y) = B(xB(y) + B(x)y) exactly where
    # x*y != 0: at three of the four basis pairs of qt2
    ident = tmp_path / "id.json"
    save_file(ident, LinearMap(2, 2, eye(2)))
    c = CORPUS["qt2"].product
    expected = sum(1 for i in range(2) for j in range(2) if any(c[i][j]))
    assert expected == 3
    assert _failure_count(["check", "rota-baxter", _corpus_path("qt2"),
                           str(ident)], capsys) == expected


def _without_wall_time(out):
    rep = json.loads(out)
    del rep["wall_time_ms"]
    return rep


def test_cli_parser_shared_across_calls(tmp_path, capsys):
    # main builds its parser once per process: a call in a process that
    # has already parsed other options prints what it prints in a fresh one
    ident = tmp_path / "id.json"
    save_file(ident, LinearMap(2, 2, eye(2)))
    argv = ["check", "rota-baxter", _corpus_path("qt2"), str(ident)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        harness.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for extra in (["--all-witnesses", "--json"], ["--json"]):
        assert main(argv + extra) == 1
        shared = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "antiflex.cli"] + argv + extra, env=env,
            capture_output=True, text=True)
        assert fresh.returncode == 1 and shared.err == fresh.stderr == ""
        assert _without_wall_time(shared.out) == \
            _without_wall_time(fresh.stdout)
    assert _without_wall_time(shared.out)["failure_count"] == 1


def test_search_spec_rejects_inexact_coefficients_and_bounds():
    for coeffs, i in (((Fraction(0), 0.1), 1), ((True, 0), 0),
                      ((0, 1, "1/2"), 2)):
        with pytest.raises(PreconditionError,
                           match=r"SearchSpec: coefficient_set\[%d\] is %s, "
                                 "not an int or Fraction"
                                 % (i, re.escape(repr(coeffs[i])))):
            SearchSpec("pafybe-symmetric", coeffs)
    for bound in (True, 0, -1, 2.0):
        with pytest.raises(PreconditionError,
                           match=r"SearchSpec: bound is %r, not a positive "
                                 "int" % (bound,)):
            SearchSpec("pafybe-symmetric", bound=bound)
    assert SearchSpec("pafybe-symmetric", (0, Fraction(1, 2)), 1) \
        .coefficient_set == (Fraction(0), Fraction(1, 2))


def test_cli_all_witnesses_bialgebra(tmp_path, capsys):
    # the products of one passing bialgebra with the comultiplications of
    # another: both structures pass, the compatibility conditions do not
    def bialgebra(split):
        double, r = canonical_solution(from_associative(CORPUS["qt2"],
                                                        split))
        return special_case_bialgebra(double, r, "one")
    a, b = bialgebra("succ-left"), bialgebra("prec-right")
    cross = Bialgebra(a.palg, b.delta_prec, b.delta_succ)
    path = tmp_path / "cross.json"
    save_file(path, cross)
    n = cross.dimension
    expected = sum(1 for i in range(n) for j in range(n)
                   for _label, _idx, res in bialgebra_condition_residuals(
                       cross.palg, cross.delta_prec, cross.delta_succ, i, j)
                   if not mat_is_zero(res))
    assert expected > 1
    assert _failure_count(["check", "bialgebra", str(path)],
                          capsys) == expected


def test_cli_all_witnesses_r_double(tmp_path, capsys):
    palg = DIM2_PRE[0]
    r = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(0)]]
    path = tmp_path / "r.json"
    save_file(path, RElement(2, r))
    pre = tmp_path / "pre.json"
    save_file(pre, palg)
    double = assembled_double(palg, r)
    basis = [[Fraction(int(i == k)) for k in range(4)] for i in range(4)]
    expected = sum(1 for x in basis for y in basis for z in basis
                   for _label, res in identity_residuals(
                       double, "pre-anti-flexible", x, y, z)
                   if not vec_is_zero(res))
    assert expected > 1
    assert _failure_count(["check", "r-double", str(pre), str(path)],
                          capsys) == expected


def test_cli_bialgebra_structure_failure_reports(tmp_path, capsys):
    # a failing dual (a raised comultiplication entry) or base structure
    # is a fail verdict carrying that structure check's own witness
    double, r = canonical_solution(from_associative(CORPUS["q1"],
                                                    "succ-left"))
    b = special_case_bialgebra(double, r, "one")
    dp = bump_t3(b.delta_prec, 0, 0, 0)
    broken_base = PreAlgebra(b.dimension, bump_t3(b.palg.prec, 0, 0, 0),
                             b.palg.succ)
    for obj, prefix in ((Bialgebra(b.palg, dp, b.delta_succ), "co-identity-"),
                        (Bialgebra(broken_base, b.delta_prec, b.delta_succ),
                         "pre-anti-flexible-")):
        path = tmp_path / "broken.json"
        save_file(path, obj)
        assert main(["check", "bialgebra", str(path)]) == 1
        assert "bialgebra: fail  [%s" % prefix in capsys.readouterr().out
        assert main(["check", "bialgebra", str(path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "fail"
        assert report["witness"]["identity"].startswith(prefix)
        assert report["failure_count"] == 1


def _failing_inputs():
    """One failing input per check command, as the objects of its files."""
    qt2, palg = CORPUS["qt2"], DIM2_PRE[0]
    left = split_bialgebra("qt2", "one")
    right = split_bialgebra("qt2", "one", "prec-right")
    mp, _pmp = bialgebra_pairs()[-1]
    regular = regular_af_bimodule(CORPUS["ut2"])
    l = [[list(row) for row in m] for m in regular.l]
    l[0][0][1] += 1
    ident = LinearMap(2, 2, eye(2))
    r = RElement(2, [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(0)]])
    zero = [[Fraction(0)] * 2 for _ in range(2)]
    return {
        "algebra": [Algebra(2, bump_t3(CORPUS["t3"].product, 0, 1, 0))],
        "pre-algebra": [PreAlgebra(2, bump_t3(palg.prec, 0, 1, 0),
                                   palg.succ)],
        "bimodule": [AfBimodule(regular.base, 3, l, regular.r)],
        "matched-pair": [mp],
        "bialgebra": [Bialgebra(left.palg, right.delta_prec,
                                right.delta_succ)],
        "pafybe": [palg, r],
        "coboundary": [palg, RPair(eye(2), zero)],
        "rota-baxter": [qt2, ident],
        "o-operator": [regular_af_bimodule(qt2), ident],
        "cocycle-form": [from_associative(qt2, "succ-left"), ident],
        "r-double": [palg, r],
    }


def test_cli_check_contract_on_failing_inputs(tmp_path, capsys):
    # every check command exits 1 on a failing input, and the first of all
    # its witnesses is the witness it reports without --all-witnesses
    inputs = _failing_inputs()
    assert sorted(inputs) == sorted(CHECK_COMMANDS)
    for command in CHECK_COMMANDS:
        paths = []
        for k, obj in enumerate(inputs[command]):
            paths.append(str(tmp_path / ("%s-%d.json" % (command, k))))
            save_file(paths[-1], obj)
        argv = ["check", command] + paths
        assert main(argv) == 1, command
        assert capsys.readouterr().out.startswith("%s: fail  [" % command)
        reports = []
        for extra in ([], ["--all-witnesses"]):
            assert main(argv + ["--json"] + extra) == 1, command
            reports.append(json.loads(capsys.readouterr().out))
        first, every = reports
        assert first["verdict"] == every["verdict"] == "fail"
        assert first["failure_count"] == 1 <= every["failure_count"]
        assert every["witness"] == first["witness"], command


def test_cli_check_rejects_wrong_input_kinds_and_counts(tmp_path, capsys):
    # each check command names the file that holds the wrong kind of
    # structure, and counts its inputs, before any checker runs: exit 2,
    # not a traceback
    inputs = _failing_inputs()
    lin = tmp_path / "map.json"
    save_file(lin, LinearMap(2, 2, eye(2)))
    for command in CHECK_COMMANDS:
        paths = []
        for k, obj in enumerate(inputs[command]):
            paths.append(str(tmp_path / ("%s-%d.json" % (command, k))))
            save_file(paths[-1], obj)
        # a linear map is no (pre-)algebra, bimodule, matched pair or
        # bialgebra, and the first file of a two-file check is no matrix
        wrong = [[str(lin)] + paths[1:]]
        if len(paths) == 2:
            wrong.append([paths[0], paths[0]])
        for argv in wrong:
            assert main(["check", command] + argv) == 2, (command, argv)
            err = capsys.readouterr().err
            bad = argv[0] if argv[0] == str(lin) else argv[1]
            assert err.startswith("error: check %s: %s is not "
                                  % (command, bad)), err
        # one file too many, and one too few where that leaves one
        for argv in [paths + paths[:1]] + [paths[:1]] * (len(paths) == 2):
            assert main(["check", command] + argv) == 2, (command, argv)
            assert "error: check %s reads %d input files, got %d" % (
                command, len(paths), len(argv)) in capsys.readouterr().err
    # an algebra file given to check bialgebra, and check pafybe given
    # only its pre-algebra
    ut2, pre = tmp_path / "ut2.json", tmp_path / "pre.json"
    save_file(ut2, CORPUS["ut2"])
    save_file(pre, DIM2_PRE[0])
    assert main(["check", "bialgebra", str(ut2)]) == 2
    assert "%s is not a bialgebra file" % ut2 in capsys.readouterr().err
    assert main(["check", "pafybe", str(pre)]) == 2
    assert "check pafybe reads 2 input files, got 1" in \
        capsys.readouterr().err


def test_cli_cocycle_form_failure_reports(tmp_path, capsys):
    # the identity form is no 2-cocycle of a splitting of qt2: a fail
    # report with a one-entry residual, not a traceback
    pre, form = tmp_path / "pre.json", tmp_path / "form.json"
    save_file(pre, from_associative(CORPUS["qt2"], "succ-left"))
    save_file(form, LinearMap(2, 2, eye(2)))
    argv = ["check", "cocycle-form", str(pre), str(form)]
    assert main(argv) == 1
    assert "cocycle-form: fail  [two-cocycle at" in capsys.readouterr().out
    for extra in (["--json"], ["--json", "--all-witnesses"]):
        assert main(argv + extra) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "fail"
        assert report["witness"]["identity"] == "two-cocycle"
        assert len(report["witness"]["residual"]) == 1
    assert main(argv + ["--all-witnesses"]) == 1
    assert "cocycle-form: fail  [two-cocycle at" in capsys.readouterr().out


def test_cli_rejects_wrong_shape_matrices(tmp_path, capsys):
    # a form, r or map that is not n x n on a dim-2 (pre-)algebra is an
    # input error naming the expected shape
    pre, alg = tmp_path / "pre.json", tmp_path / "alg.json"
    save_file(pre, DIM2_PRE[0])
    save_file(alg, CORPUS["qt2"])
    for rows, cols in ((1, 1), (3, 3), (2, 1), (2, 3)):
        m = tmp_path / ("m%d%d.json" % (rows, cols))
        save_file(m, LinearMap(rows, cols, [[Fraction(int(i == j))
                                             for j in range(cols)]
                                            for i in range(rows)]))
        for command, subject in (("cocycle-form", pre), ("r-double", pre),
                                 ("pafybe", pre), ("rota-baxter", alg)):
            assert main(["check", command, str(subject), str(m)]) == 2
            assert "must be 2 x 2" in capsys.readouterr().err


def test_cli_from_rb_rejects_wrong_shape_maps(tmp_path, capsys):
    # a map that is not n x n on the algebra is an input error naming the
    # expected shape, not a pre-algebra read from part of it or a crash
    alg = tmp_path / "ut2.json"
    save_file(alg, CORPUS["ut2"])
    for rows, cols in ((4, 4), (1, 1), (3, 2)):
        m = tmp_path / ("m%d%d.json" % (rows, cols))
        save_file(m, LinearMap(rows, cols, [[Fraction(int(i == j))
                                             for j in range(cols)]
                                            for i in range(rows)]))
        out = tmp_path / "out.json"
        assert main(["construct", "from-rb", str(alg), str(m),
                     "-o", str(out)]) == 2
        assert "induced_pre_from_map: alpha must be 3 x 3" in \
            capsys.readouterr().err
        assert not out.exists()


def test_cli_construct_coboundary_refuses_a_failing_base(tmp_path, capsys):
    # a base that fails the pre-anti-flexible check (e < e = e > e = e
    # fails lr at (e, e, e)) is an input error on both paths, an r-pair
    # and a single r with --case: exit 2 naming the builder, no file
    base, rpair, relt = (tmp_path / name for name in
                         ("base.json", "rpair.json", "r.json"))
    save_file(base, PreAlgebra(1, [[[1]]], [[[1]]]))
    save_file(rpair, RPair([[1]], [[0]]))
    save_file(relt, RElement(1, [[1]]))
    out = tmp_path / "out.json"
    for caller, files in (("coboundary_bialgebra", [rpair]),
                          ("special_case_bialgebra", [relt, "--case", "one"]),
                          ("special_case_bialgebra", [relt, "--case", "two"])):
        assert main(["construct", "coboundary", str(base),
                     *map(str, files), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: %s: base fails the pre-anti-flexible check; witness "
            % caller)
        assert not out.exists()


def test_cli_exit_codes_separate_input_errors_from_bugs(tmp_path, capsys,
                                                        monkeypatch):
    alg = tmp_path / "qt2.json"
    save_file(alg, CORPUS["qt2"])
    out = str(tmp_path / "out.json")
    # usage and input errors exit 2
    with pytest.raises(SystemExit) as exc:
        main(["construct", "from-associative", str(alg), "-o", out,
              "--variant", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    for coeffs in ("1,x", "1/0"):
        assert main(["search", "rota-baxter", str(alg),
                     "--coeffs", coeffs]) == 2
        assert "error: --coeffs: malformed scalar" in capsys.readouterr().err
    assert main(["construct", "from-associative", str(alg), str(alg),
                 "-o", out]) == 2
    assert "construct from-associative reads 1 input files, got 2" in \
        capsys.readouterr().err
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    assert main(["check", "algebra", str(binary)]) == 2
    assert "error: not UTF-8 text" in capsys.readouterr().err
    # a ValueError raised inside a checker is a bug, not an input error
    import antiflex.harness as harness

    def broken(*_args):
        raise ValueError("internal fault")
    monkeypatch.setitem(harness._CHECKS, "algebra",
                        (harness._CHECKS["algebra"][0], broken))
    with pytest.raises(ValueError, match="internal fault"):
        main(["check", "algebra", str(alg)])


# each construction by the number of input files it reads
_CONSTRUCT_INPUTS = {"semidirect": 1, "double": 1, "coboundary": 2,
                     "canonical-r": 1, "from-o-operator": 2, "from-form": 2,
                     "from-associative": 1, "from-rb": 2}


def test_cli_construct_on_every_file_kind_exits_with_a_code(tmp_path,
                                                            capsys):
    # every construction, on every combination of package-written files of
    # each kind, ends in exit 0, 1 or 2, never in a traceback
    paths = []
    for k, text in enumerate(DOCUMENTS):
        paths.append(str(tmp_path / ("in%d.json" % k)))
        with open(paths[-1], "w") as fh:
            fh.write(text)
    out = str(tmp_path / "out.json")
    for what, count in _CONSTRUCT_INPUTS.items():
        for files in product(paths, repeat=count):
            argv = ["construct", what, *files, "-o", out]
            assert main(argv) in (0, 1, 2), argv
            capsys.readouterr()
    # a wrong kind names the file; a single-matrix r needs --case
    pre, relt = paths[1], paths[7]
    assert main(["construct", "from-associative", pre, "-o", out]) == 2
    assert "construct from-associative: %s is not an algebra file" % pre \
        in capsys.readouterr().err
    assert main(["construct", "coboundary", pre, relt, "-o", out]) == 2
    assert "a single-matrix r-element needs --case" in \
        capsys.readouterr().err


def test_cli_search_on_every_file_kind_exits_with_a_code(tmp_path, capsys):
    # every search target, on every package-written file kind, ends in
    # exit 0 or 2, never in a traceback; a wrong kind names the file
    paths = []
    for k, text in enumerate(DOCUMENTS):
        paths.append(str(tmp_path / ("in%d.json" % k)))
        with open(paths[-1], "w") as fh:
            fh.write(text)
    for target in SEARCH_TARGETS:
        for path in paths:
            argv = ["search", target, path, "--bound", "2"]
            assert main(argv) in (0, 2), argv
            capsys.readouterr()
    alg, pre = paths[0], paths[1]
    for target, path, what in (("pafybe-symmetric", alg, "a pre-algebra"),
                               ("rota-baxter", pre, "an algebra"),
                               ("o-operator", alg, "a bimodule with "
                                "variant 'anti-flexible'"),
                               ("o-operator", pre, "a bimodule with "
                                "variant 'anti-flexible'")):
        assert main(["search", target, path]) == 2
        assert capsys.readouterr().err == "error: search %s: %s is not %s " \
            "file\n" % (target, path, what)


def test_cli_oracle_on_every_file_kind_exits_with_a_code(tmp_path, capsys):
    # every identity kind, on every package-written file kind, ends in
    # exit 0, 1 or 2, never in a traceback; a file that holds neither an
    # algebra nor a pre-algebra is named
    paths = []
    for k, text in enumerate(DOCUMENTS):
        paths.append(str(tmp_path / ("in%d.json" % k)))
        with open(paths[-1], "w") as fh:
            fh.write(text)
    for kind in ALGEBRA_KINDS + PREALGEBRA_KINDS:
        for path in paths:
            argv = ["oracle", kind, path, "--trials", "5"]
            code = main(argv)
            err = capsys.readouterr().err
            if isinstance(load_file(path), (Algebra, PreAlgebra)):
                assert code in (0, 1, 2), argv
            else:
                assert code == 2, argv
                assert err == "error: oracle %s: %s is not an algebra or " \
                    "pre-algebra file\n" % (kind, path)


def test_oracle_needs_at_least_one_trial(tmp_path, capsys):
    # with no trial run nothing can disagree: a count of trials that is
    # not a positive int is an input error, not a checker bug
    bad = Algebra(2, bump_t3(CORPUS["t3"].product, 0, 1, 0))
    for trials in (0, -5, True, 1.5):
        with pytest.raises(PreconditionError, match=re.escape(
                "random_element_oracle: trials must be a positive int, got "
                "%r" % (trials,))):
            random_element_oracle("associative", bad, trials)
    p = tmp_path / "bad.json"
    save_file(p, bad)
    for trials in ("0", "-5"):
        assert main(["oracle", "associative", str(p), "--trials",
                     trials]) == 2
        assert capsys.readouterr().err == "error: random_element_oracle: " \
            "trials must be a positive int, got %s\n" % trials
    assert main(["oracle", "associative", str(p), "--trials", "1"]) == 1
    capsys.readouterr()


def test_grid_search_rejects_a_subject_of_the_wrong_type():
    qt2, palg = CORPUS["qt2"], DIM2_PRE[0]
    for target, subject in (("pafybe-symmetric", qt2),
                            ("rota-baxter", palg), ("o-operator", qt2),
                            ("o-operator", regular_pre_bimodule(palg))):
        with pytest.raises(PreconditionError, match=re.escape(
                "grid_search: a %s search needs " % target)):
            grid_search(SearchSpec(target, bound=2), subject)


def test_matrix_payloads_reject_inexact_entries():
    # a float, a bool or a string entry of an O-operator, an r-element or
    # a linear map is a PreconditionError naming its index
    bm = regular_af_bimodule(CORPUS["qt2"])
    for bad in (0.5, True, "x"):
        m = [[Fraction(1, 2), Fraction(0)], [Fraction(0), bad]]
        entry = re.escape("[1][1] is %r, not an int or Fraction" % (bad,))
        with pytest.raises(PreconditionError, match="OOperator: T" + entry):
            OOperator(bm, m)
        with pytest.raises(PreconditionError, match="RElement: r" + entry):
            RElement(2, m)
        with pytest.raises(PreconditionError,
                           match="LinearMap: matrix" + entry):
            LinearMap(2, 2, m)


def test_schema_rows_of_a_kind_can_be_told_apart():
    # _read takes the positive ints of a kind before it picks the row, so
    # every row of a kind has the same ones; it picks by the variant, or,
    # for a kind written without one, by the last key of the first of two
    # rows, which the second row lacks
    for rows in harness._KINDS.values():
        assert len({tuple(f for f in r.fields if f[1] is harness._INT)
                    for r in rows}) == 1
        assert (len({r.variant for r in rows} - {None}) == len(rows)
                if rows[0].variant else len(rows) == 1 or (
                    len(rows) == 2 and rows[1].variant is None
                    and rows[0].fields[-1][0] not in dict(rows[1].fields)))
