"""A golden corpus of command-line runs: each run's exit code, standard
output, standard error and the bytes of every file it writes, hashed into
tests/golden.json.

The inputs are built in code and written, with the runs' outputs, under a
fresh temporary directory that the runs take as their working directory,
so every path they name is relative (in/..., out/...) and no absolute path
reaches a message.  Each run is one in-process call of antiflex.cli.main.
The wall time that a --json check report carries is the one part of any
output that is not a function of the inputs, so its value is blanked
before hashing.  The runs of a verb and command share one digest of their
argv and outcomes in order, kept with their number and exit codes.
argparse's usage errors are part of some runs' stderr and their wording
differs between Python versions, so the manifest holds for the Python it
was written with (3.11).

Run as `python tests/golden.py` to compare the runs with tests/golden.json
(exit 1 on a difference, naming each verb and command that differs), or
as `python tests/golden.py --write` to rewrite that manifest from this
checkout.  `python tests/golden.py --list` prints each run's exit code,
digest and argv, one a line, so that a difference is found by comparing
two checkouts' lists.  tests/test_golden.py makes the comparison.
"""

import hashlib
import io
import json
import os
import pathlib
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from antiflex.algebra import ALGEBRA_KINDS, FROM_ASSOCIATIVE_VARIANTS, \
    PREALGEBRA_KINDS, Algebra, PreAlgebra, from_associative
from antiflex.bialgebra import Bialgebra
from antiflex.bimodule import AfBimodule, PreBimodule, \
    BIMODULE_TRANSFORMS, derive_bimodule, regular_af_bimodule, \
    regular_pre_bimodule
from antiflex.cli import main
from antiflex.coboundary import RPair, SPECIAL_CASES, special_case_bialgebra, \
    special_case_rpair
from antiflex.harness import LinearMap, RElement, SearchSpec, grid_search, \
    serialize
from antiflex.linalg import zeros_mat
from antiflex.matched import build_af_double, dual_pre_matched, \
    omega_matrix, standard_dual_matched
from antiflex.operators import canonical_solution, r_map_matrix

from helpers import CORPUS, NOT_DENDRIFORM, bump_t3, \
    induced_not_dendriform, non_associative_af, rand_mat, rand_sym_mat, \
    seeded

MANIFEST = pathlib.Path(__file__).with_name("golden.json")

_WALL_TIME = re.compile(r'"wall_time_ms": [^,\n}]*')


def _bumped(m, i, j):
    """A copy of the matrix m with entry (i, j) raised by one."""
    out = [list(row) for row in m]
    out[i][j] += 1
    return out


def build_inputs():
    """name -> the object of each input file, in the order written."""
    objs = {}
    for name, alg in CORPUS.items():
        objs["alg-" + name] = alg
        for variant in FROM_ASSOCIATIVE_VARIANTS:
            objs["pre-%s-%s" % (name, variant)] = from_associative(alg,
                                                                   variant)
    qt2 = CORPUS["qt2"]
    objs["alg-bumped"] = Algebra(2, bump_t3(qt2.product, 0, 1, 0))
    for i, alg in enumerate(non_associative_af()[:2]):
        objs["alg-naf%d" % i] = alg
    for i, palg in enumerate(NOT_DENDRIFORM):
        objs["pre-nd%d" % i] = palg
    for i, palg in enumerate(induced_not_dendriform()[:2]):
        objs["pre-ind%d" % i] = palg
    left = objs["pre-qt2-succ-left"]
    objs["pre-bumped"] = PreAlgebra(2, bump_t3(left.prec, 1, 0, 1),
                                    left.succ)

    # the canonical doubles and their r, r-pairs and bialgebras
    bialgebras = {}
    for key in ("qt2-succ-left", "qt2-prec-right", "t3-succ-left", "nd0"):
        double, r = canonical_solution(objs["pre-" + key])
        n = double.dimension
        objs["double-" + key] = double
        objs["r-" + key] = RElement(n, r)
        objs["r-bumped-" + key] = RElement(n, _bumped(r, 0, 1))
        for case in SPECIAL_CASES:
            objs["rpair-%s-%s" % (case, key)] = special_case_rpair(r, case)
            b = bialgebras[case, key] = special_case_bialgebra(double, r,
                                                               case)
            objs["bi-%s-%s" % (case, key)] = b
    one, cross = bialgebras["one", "qt2-succ-left"], \
        bialgebras["one", "qt2-prec-right"]
    objs["bi-cross"] = Bialgebra(one.palg, cross.delta_prec, cross.delta_succ)
    objs["bi-bumped"] = Bialgebra(one.palg, bump_t3(one.delta_prec, 0, 0, 1),
                                  one.delta_succ)

    # the dual pairs: of a pre-algebra with itself, of a bialgebra's
    # products with its dual products, and a failing cross
    for key in ("qt2-succ-left", "nd1"):
        palg = objs["pre-" + key]
        objs["mp-af-" + key] = standard_dual_matched(palg, palg)
        objs["mp-pre-" + key] = dual_pre_matched(palg, palg)
    two = bialgebras["two", "qt2-succ-left"]
    for name, b in (("bi-two", two), ("bi-one", one)):
        objs["mp-af-" + name] = standard_dual_matched(b.palg, b.dual)
        objs["mp-pre-" + name] = dual_pre_matched(b.palg, b.dual)
    objs["mp-af-cross"] = standard_dual_matched(one.palg, cross.dual)
    objs["mp-pre-cross"] = dual_pre_matched(one.palg, cross.dual)

    # regular, derived and bumped bimodules
    for name in ("qt2", "naf0"):
        objs["bm-af-" + name] = regular_af_bimodule(objs["alg-" + name])
    t3 = objs["pre-t3-succ-left"]
    objs["bm-pre-t3"] = regular_pre_bimodule(t3)
    objs["bm-pre-nd2"] = regular_pre_bimodule(objs["pre-nd2"])
    for transform in BIMODULE_TRANSFORMS:
        objs["bm-%s-t3" % transform] = derive_bimodule(
            regular_pre_bimodule(t3), transform)
    double = objs["double-qt2-succ-left"]
    objs["bm-af-dual-outer-double"] = derive_bimodule(
        regular_pre_bimodule(double), "af-dual-outer")
    regular = objs["bm-af-qt2"]
    objs["bm-af-bumped"] = AfBimodule(qt2, 2, bump_t3(regular.l, 0, 0, 1),
                                      regular.r)
    pre = objs["bm-pre-t3"]
    objs["bm-pre-bumped"] = PreBimodule(t3, 2, pre.l_succ, pre.r_succ,
                                        bump_t3(pre.l_prec, 1, 1, 0),
                                        pre.r_prec)

    # matrices: the form and operator that construct from-form and
    # from-o-operator, Rota-Baxter maps, seeded and bumped matrices
    af_double = objs["alg-af-double"] = build_af_double(objs["mp-af-bi-two"])
    n = af_double.dimension
    objs["map-omega"] = LinearMap(n, n, omega_matrix(n // 2))
    objs["map-r-double"] = LinearMap(4, 4, r_map_matrix(
        objs["r-qt2-succ-left"].r))
    found, _ = grid_search(SearchSpec("rota-baxter"), qt2)
    for i, m in enumerate((found[1], found[-1])):
        objs["map-rb%d" % i] = LinearMap(2, 2, m)
        objs["map-rb%d-bumped" % i] = LinearMap(2, 2, _bumped(m, 1, 0))
    objs["map-zero"] = LinearMap(2, 2, zeros_mat(2))
    objs["map-2x3"] = LinearMap(2, 3, rand_mat(seeded(3), 2, 3))
    for n in (2, 4):
        objs["r-seeded%d" % n] = RElement(n, rand_mat(seeded(n), n))
        objs["r-sym%d" % n] = RElement(n, rand_sym_mat(seeded(n), n))
        objs["map-seeded%d" % n] = LinearMap(n, n, rand_mat(seeded(n + 1),
                                                            n))
    objs["rpair-seeded"] = RPair(rand_mat(seeded(7), 2),
                                 rand_mat(seeded(8), 2))
    return objs


# what each malformed file holds
_MALFORMED = {
    "truncated": lambda good: good[:len(good) // 2],
    "bad-scalar": lambda good: good.replace(b'"1"', b'"1/0"', 1),
    "unknown-field": lambda good: good.replace(b"{", b'{"extra": 1,', 1),
    "not-utf8": lambda good: b"\xff\xfe",
    "not-json": lambda good: b"antiflex",
}

# the other options under which a check that reads its inputs (exit 0 or
# 1) is run again
_CHECK_FLAGS = (["--json"], ["--all-witnesses"], ["--json", "--all-witnesses"])


def _files(objs, *classes):
    return ["in/%s.json" % name for name, obj in objs.items()
            if isinstance(obj, classes)]


def build_runs(objs):
    """The argv of every run, in order, but for the reruns of checks under
    _CHECK_FLAGS."""
    algs, pres = _files(objs, Algebra), _files(objs, PreAlgebra)
    small = [p for p in pres if "m2" not in p]  # m2's would add only time
    mats, rpairs = _files(objs, RElement, LinearMap), _files(objs, RPair)
    bms = _files(objs, AfBimodule)
    every = [[f] for f in _files(objs, object)]
    bad = ["in/%s.json" % name for name in _MALFORMED] + ["in/missing.json"]
    some = ["in/alg-qt2.json", "in/pre-nd0.json", "in/bm-af-qt2.json",
            "in/r-seeded2.json", "in/map-rb0.json"]
    wrong = [[], some[:3], *([f] for f in bad)]
    out = ["-o", "out/primary.json"]
    second = ["--secondary", "out/secondary.json"]
    runs = []

    # checks: a one-input check on every file, a two-input one on every
    # subject of its kind with every matrix
    checks = {"algebra": every, "pre-algebra": every, "bimodule": every,
              "matched-pair": every, "bialgebra": every,
              "pafybe": [[p, m] for p in small for m in mats],
              "coboundary": [[p, m] for p in small
                             for m in rpairs + some[3:]],
              "rota-baxter": [[a, m] for a in algs for m in mats],
              "o-operator": [[b, m] for b in bms for m in mats],
              "cocycle-form": [[p, m] for p in small for m in mats],
              "r-double": [[p, m] for p in small for m in mats]}
    for command, cases in checks.items():
        runs += [["check", command, *files] for files in cases + wrong]
    for command in ("algebra", "pre-algebra"):
        for kind in ALGEBRA_KINDS + PREALGEBRA_KINDS + ("bogus",):
            runs += [["check", command, f, "--kind", kind]
                     for f in algs[:8] + pres[:8] + some[1:]]
    runs.append(["check", "bogus", "in/alg-t3.json"])

    # constructions, with --secondary, --case and --variant
    constructions = {
        "semidirect": every, "double": every,
        "coboundary": [[p, m] for p in small for m in rpairs + some[3:]],
        "canonical-r": [[p] for p in pres + some],
        "from-o-operator": [[b, m] for b in bms for m in mats],
        "from-form": [[a, m] for a in algs for m in mats],
        "from-associative": [[a] for a in algs + some],
        "from-rb": [[a, m] for a in algs for m in mats]}
    for what, cases in constructions.items():
        runs += [["construct", what, *files, *out] for files in cases + wrong]
        runs += [["construct", what, *files, *out, *second]
                 for files in cases[:40:3]]
    for p in small:
        for m in mats[:10] + ["in/map-r-double.json"]:
            for case in SPECIAL_CASES + ("three",):
                runs.append(["construct", "coboundary", p, m, *out,
                             "--case", case])
    for a in algs + some[1:]:
        for variant in FROM_ASSOCIATIVE_VARIANTS + ("bogus",):
            runs.append(["construct", "from-associative", a, *out,
                         "--variant", variant])

    # searches, written with -o, with --bound and --coeffs
    subjects = {"rota-baxter": algs + some[1:3],
                "pafybe-symmetric": small[:6] + some[:1] + some[2:3],
                "o-operator": bms + some[:2]}
    for target, files in subjects.items():
        runs += [["search", target, f, "-o", "out/search.json"]
                 for f in files + bad]
        for options in (["--bound", "1"], ["--bound", "0"],
                        ["--coeffs", "0,1/2"], ["--coeffs", "-1,0,1,-1"],
                        ["--coeffs", "-1/2,1"], ["--coeffs", "1,x"]):
            runs.append(["search", target, files[0], "-o", "out/search.json",
                         *options])

    # the oracle on every kind, with --trials and --seed
    for kind in ALGEBRA_KINDS + PREALGEBRA_KINDS:
        for f in some[:3] + bad[:1] + [
                "in/alg-naf0.json", "in/alg-bumped.json",
                "in/pre-qt2-succ-left.json", "in/pre-bumped.json"]:
            runs.append(["oracle", kind, f, "--trials", "20"])
        for options in (["--seed", "5"], ["--trials", "0"]):
            runs.append(["oracle", kind, "in/alg-t3.json", *options])
    return runs


def run(argv):
    """(exit code, stdout with the wall time blanked, stderr, {name: bytes
    of each file written under out/}) of one in-process run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    written = {}
    for path in sorted(pathlib.Path("out").iterdir()):
        written[path.name] = path.read_bytes()
        path.unlink()
    return code, _WALL_TIME.sub('"wall_time_ms": _', stdout.getvalue()), \
        stderr.getvalue(), written


def records():
    """(argv, exit code, the bytes its outcome is hashed as) of every run,
    in order, in a fresh temporary working directory."""
    objs = build_inputs()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            os.mkdir("in")
            os.mkdir("out")
            for name, obj in objs.items():
                pathlib.Path("in/%s.json" % name).write_bytes(
                    serialize(obj))
            good = serialize(objs["alg-qt2"])
            for name, edit in _MALFORMED.items():
                pathlib.Path("in/%s.json" % name).write_bytes(edit(good))
            for argv in build_runs(objs):
                reruns = _CHECK_FLAGS if argv[0] == "check" else ()
                for flags in ((),) + reruns:
                    code, stdout, stderr, written = run([*argv, *flags])
                    yield [*argv, *flags], code, json.dumps(
                        [[*argv, *flags], code, stdout, stderr,
                         sorted(written)]).encode() + b"".join(
                        b"%d\0" % len(data) + data
                        for data in written.values())
                    if code not in (0, 1):
                        break
        finally:
            os.chdir(here)


def sweep():
    """The manifest of this checkout: for each verb and command, the
    number of runs, the count of each exit code, and one digest of the
    records of its runs in order."""
    groups = {}
    for argv, code, record in records():
        group = groups.setdefault(" ".join(argv[:2]), {
            "runs": 0, "exits": {}, "digest": hashlib.sha256()})
        group["runs"] += 1
        group["exits"][code] = group["exits"].get(code, 0) + 1
        group["digest"].update(record)
    for group in groups.values():
        group["exits"] = {str(k): v for k, v in sorted(group["exits"].items())}
        group["digest"] = group["digest"].hexdigest()
    return groups


def load_manifest():
    return json.loads(MANIFEST.read_text())


def write_manifest(manifest):
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def differences(expected, got):
    """The groups of runs whose entries differ, or that only one side
    has."""
    return sorted(key for key in expected.keys() | got.keys()
                  if expected.get(key) != got.get(key))


if __name__ == "__main__":
    if sys.argv[1:] == ["--list"]:
        for argv, code, record in records():
            print(code, hashlib.sha256(record).hexdigest()[:16],
                  " ".join(argv))
        sys.exit(0)
    got = sweep()
    total = sum(group["runs"] for group in got.values())
    if sys.argv[1:] == ["--write"]:
        write_manifest(got)
        print("wrote %d runs in %d groups to %s" % (total, len(got),
                                                      MANIFEST))
        sys.exit(0)
    diff = differences(load_manifest(), got)
    for key in diff:
        print("differs: %s" % key)
    print("%d runs in %d groups, %d differ" % (total, len(got), len(diff)))
    sys.exit(1 if diff else 0)
