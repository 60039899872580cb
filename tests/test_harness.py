import json
import os
from fractions import Fraction
from itertools import product

import pytest

from antiflex.algebra import Algebra, PreconditionError, from_associative, \
    identity_residuals
from antiflex.bialgebra import Bialgebra, bialgebra_condition_residuals
from antiflex.bimodule import AfBimodule, regular_af_bimodule, \
    regular_pre_bimodule
from antiflex.cli import main
from antiflex.coboundary import RPair, check_pafybe, special_case_bialgebra
from antiflex.matched import dual_pre_matched, standard_dual_matched
from antiflex.operators import OOperator, assembled_double, \
    canonical_solution, check_o_operator, check_rota_baxter
from antiflex.harness import (
    CORPUS_DIR, FormatError, LinearMap, RElement, SearchSpec, corpus_names,
    grid_search, load_corpus, load_file, parse_file, random_element_oracle,
    run_check, save_file, serialize,
)
from antiflex.linalg import eye, mat_is_zero, vec_is_zero, zeros_t3

from helpers import CORPUS, DIM2_PRE, bump_t3


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
