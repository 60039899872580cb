"""The three workloads: the inputs made from the seed, the jobs of one
round, and the check of every job's output against an answer worked out
by the evaluators in oracle.py.

A workload has three steps:

* ``plan(api, rng, work)`` makes the seeded choices, as plain data.  It
  may use the oracle to pick inputs with a known answer, and it writes the
  files that hold nothing but a seeded choice; it is not timed.
* ``setup(api, plan, work)`` is the timed set-up: it builds the inputs
  with the program from the corpus and the plan, writes the files the jobs
  read, and returns the jobs of one round.
* each job's ``check`` compares its output with the expected answer; the
  checks run after the timed rounds.

A job's kind says which end-to-end metric its time goes to: "pass" and
"fail" jobs are verdicts with that expected answer; "search" and
"construct" jobs count only towards the round time.
"""

from __future__ import annotations

import io
import json
import os
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable

import oracle as O


class Mismatch(Exception):
    """A job's output disagrees with its expected answer."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


@dataclass
class Job:
    name: str
    kind: str                       # "pass", "fail", "search", "construct"
    run: Callable[[], object]       # the timed operation
    check: Callable[[object, dict], None]  # (result, {path: bytes written})
    writes: tuple = ()              # files the operation writes


# ---------------------------------------------------------------------------
# running the program
# ---------------------------------------------------------------------------

CliResult = namedtuple("CliResult", "code out err")


def cli(api, argv):
    """One in-process run of the command-line entry point, with its output
    captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = api.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def error_of(result):
    """Why a job did not complete, or None: the command line reports input
    and usage errors with exit code 2; library calls raise instead."""
    if isinstance(result, CliResult) and result.code not in (0, 1):
        return "exit code %r: %s" % (result.code, result.err.strip())
    return None


def comparable(result):
    """A job result with the parts that change from run to run removed, so
    that the rounds of one run can be compared."""
    if isinstance(result, CliResult):
        try:
            doc = json.loads(result.out)
        except ValueError:
            return result.code, result.out
        if isinstance(doc, dict):
            doc.pop("wall_time_ms", None)
        return result.code, doc
    if hasattr(result, "passed"):
        return result.passed, result.identity_name, result.witness
    return result


def interleave(*lists):
    """The jobs of all lists in one round, each list spread evenly over it
    and kept in its own order, so that every kind of job meets the same
    mix of fast and slow spells of the host."""
    keyed = [((i + 0.5) / len(jobs), n, job) for n, jobs in enumerate(lists)
             for i, job in enumerate(jobs)]
    return [job for _pos, _n, job in sorted(keyed, key=lambda t: t[:2])]


def search_report(result):
    """The report of a search job: printed by the command line, returned by
    the library."""
    if isinstance(result, CliResult):
        return json.loads(result.out)
    return result[1]


def write(path, data):
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def as_fractions(m):
    return [[Fraction(x) for x in row] for row in m]


def check_report(result, code, verdict):
    """The parsed --json report of a CLI check, after its exit code and
    verdict are compared with the expected ones."""
    expect(result.code == code, "exit code %r, expected %r (%s)"
           % (result.code, code, result.err.strip()))
    rep = json.loads(result.out)
    expect(rep["verdict"] == verdict, "verdict %r, expected %r"
           % (rep["verdict"], verdict))
    if verdict == "pass":
        expect(rep["witness"] is None, "a passing report carries a witness")
    return rep


def check_witness(rep, identity, indices, residual):
    w = rep["witness"]
    expect(w is not None, "no witness")
    expect(w["identity"] == identity, "witness identity %r, expected %r"
           % (w["identity"], identity))
    expect(list(w["indices"]) == list(indices), "witness at %r, expected %r"
           % (w["indices"], list(indices)))
    expect(O.exact(w["residual"]) == residual,
           "witness residual differs from the independent evaluation")


def check_round_trip(api, data, what):
    h = api.harness
    expect(h.serialize(h.parse_file(data)) == data,
           "%s does not survive serialize -> parse -> serialize" % what)


def solution_is_certified(doc, case=None):
    """The premise of the theorem the passing verdicts rest on: the
    pre-algebra of doc is pre-anti-flexible and the canonical r is a
    symmetric solution of its Yang-Baxter equation.  With a case, also
    that doc's comultiplications are that case's coboundaries of r.
    Returns r."""
    prec, succ = doc["prec"], doc["succ"]
    r = O.canonical_r(len(prec))
    expect(O.pre_af_first_failure(prec, succ) is None,
           "the double is not pre-anti-flexible")
    expect(O.is_zero(O.pafybe_residual(prec, succ, r)),
           "the canonical r does not solve the Yang-Baxter equation")
    if case is not None:
        want = O.coboundary_comult(prec, succ, *O.special_case_pair(r, case))
        expect((doc["delta_prec"], doc["delta_succ"]) == want,
               "the comultiplications are not the case-%s coboundaries"
               % case)
    return r


# ---------------------------------------------------------------------------
# verify: the bialgebra verifier on passing and failing inputs
# ---------------------------------------------------------------------------

class Verify:
    """check bialgebra on the case-one and case-two coboundary bialgebras
    of the canonical doubles of qt2 and t3 (both splittings), which pass,
    and on eight seeded cross pairs (one double's products, another's
    comultiplications) that fail bialgebra-1 at (0, 0)."""

    CASES = [(alg, split, case) for alg in ("qt2", "t3")
             for split in ("succ-left", "prec-right")
             for case in ("one", "two")]

    @staticmethod
    def _bialgebras(api):
        out = {}
        for alg, split, case in Verify.CASES:
            palg = api.algebra.from_associative(
                api.harness.load_corpus(alg), split)
            double, r = api.operators.canonical_solution(palg)
            out[alg, split, case] = api.coboundary.special_case_bialgebra(
                double, r, case)
        return out

    def plan(self, api, rng, _work):
        plain = {key: ([list(map(list, m)) for m in b.palg.prec],
                       [list(map(list, m)) for m in b.palg.succ],
                       [list(map(list, m)) for m in b.delta_prec],
                       [list(map(list, m)) for m in b.delta_succ])
                 for key, b in self._bialgebras(api).items()}
        # one cross pair for the products of each bialgebra, its
        # comultiplications drawn from another double among those that
        # fail bialgebra-1 at (0, 0)
        cross = []
        for a in self.CASES:
            partners = [b for b in self.CASES if a[:2] != b[:2] and
                        not O.is_zero(O.bialgebra_1_residual(
                            plain[a][0], plain[a][1], plain[b][2],
                            plain[b][3], 0, 0))]
            cross.append((a, rng.choice(partners)))
        return {"cross": cross}

    def setup(self, api, plan, work):
        bialgebras = self._bialgebras(api)
        serialize = api.harness.serialize
        passes, fails = [], []
        for key in self.CASES:
            path = write(os.path.join(work, "bialgebra-%s-%s-%s.json" % key),
                         serialize(bialgebras[key]))
            passes.append(Job("check bialgebra %s %s %s" % key, "pass",
                              _cli_runner(api, ["check", "bialgebra", path,
                                                "--json"]),
                              _verify_pass_check(path, key[2])))
        for a, b in plan["cross"]:
            mixed = api.bialgebra.Bialgebra(bialgebras[a].palg,
                                            bialgebras[b].delta_prec,
                                            bialgebras[b].delta_succ)
            name = "cross-%s-%s-%s--%s-%s-%s.json" % (a + b)
            path = write(os.path.join(work, name), serialize(mixed))
            fails.append(Job("check bialgebra " + name[:-5], "fail",
                             _cli_runner(api, ["check", "bialgebra", path,
                                               "--json"]),
                             _verify_fail_check(path)))
        return interleave(passes, fails)


def _cli_runner(api, argv):
    return lambda: cli(api, argv)


def _verify_pass_check(path, case):
    inputs = cache(lambda: solution_is_certified(O.read_file(path), case))

    def check(result, _written):
        inputs()
        check_report(result, 0, "pass")
    return check


def _verify_fail_check(path):
    @cache
    def expected():
        doc = O.read_file(path)
        prec, succ = doc["prec"], doc["succ"]
        dprec, dsucc = doc["delta_prec"], doc["delta_succ"]
        expect(O.pre_af_first_failure(prec, succ) is None,
               "the cross pair's products are not pre-anti-flexible")
        expect(O.pre_af_first_failure(*O.dual_products(dprec, dsucc))
               is None,
               "the cross pair's dual products are not pre-anti-flexible")
        return O.bialgebra_1_residual(prec, succ, dprec, dsucc, 0, 0)

    def check(result, _written):
        rep = check_report(result, 1, "fail")
        check_witness(rep, "bialgebra-1", (0, 0), expected())
    return check


# ---------------------------------------------------------------------------
# search: bounded grid searches and single-candidate checks
# ---------------------------------------------------------------------------

class Search:
    """Four grid searches (2,777 candidates) on seeded basis permutations
    of ut2 and m2, and checks of single candidates: every one the grid
    accepts (passing verdicts) and 48 seeded ones it rejects per
    target (failing verdicts with their first witness).

    The command line cannot read the bimodule files the package writes
    (their embedded base algebra carries a "kind" key that the bimodule
    parser rejects), so the o-operator target goes through the library,
    and one command-line job on such a file fails in every round."""

    # (target, corpus algebra, subject, coefficients, single-check command)
    TARGETS = (("rota-baxter", "ut2", "algebra", ("0", "1"), "rota-baxter"),
               ("pafybe-symmetric", "ut2", "succ-left", ("-1", "0", "1"),
                "pafybe"),
               ("pafybe-symmetric", "m2", "succ-left", ("0", "1"), "pafybe"),
               ("o-operator", "ut2", "regular", ("0", "1"), "o-operator"))
    REJECTED = 48

    def __init__(self, root):
        self.corpus = os.path.join(root, "src", "antiflex", "corpus")

    def plan(self, api, rng, work):
        h = api.harness
        perms, products = {}, {}
        for alg in ("ut2", "m2"):
            c = O.read_file(os.path.join(self.corpus, alg + ".json"))[
                "product"]
            perms[alg] = rng.sample(range(len(c)), len(c))
            products[alg] = O.permuted(c, perms[alg])
        targets = []
        for k, (target, alg, subject, coeffs, _cmd) in enumerate(
                self.TARGETS):
            c = products[alg]
            expected = _subject(c, subject)
            accept, cands = _grid(target, c, expected, coeffs)
            found, rejected = [], []
            for cand in cands:
                (found if accept(cand) else rejected).append(cand)
            tp = {"subject": expected, "found": found,
                  "size": len(found) + len(rejected), "pass": found,
                  "fail": rng.sample(rejected, self.REJECTED)}
            # The candidates are the seeded choice itself: their files are
            # written once here, so that set-up time is not mostly the
            # writing of a few hundred small files.
            for kind in ("pass", "fail"):
                tp[kind + "_files"] = [
                    write(os.path.join(work, "cand-%d-%s-%d.json"
                                       % (k, kind, i)),
                          h.serialize(_candidate(h, target, m)))
                    for i, m in enumerate(tp[kind])]
            targets.append(tp)
        return {"perms": perms, "targets": targets}

    def setup(self, api, plan, work):
        h, ops = api.harness, api.operators
        base = {}
        for alg, perm in plan["perms"].items():
            a = h.load_corpus(alg)
            base[alg] = api.algebra.Algebra(
                a.dimension, O.permuted(a.product, perm),
                tuple(a.basis_names[p] for p in perm))
        subjects = {
            "algebra": lambda a: a,
            "succ-left": lambda a: api.algebra.from_associative(
                a, "succ-left"),
            "regular": api.bimodule.regular_af_bimodule,
        }
        searches, singles = [], []
        for k, ((target, alg, subject, coeffs, cmd), tp) in enumerate(
                zip(self.TARGETS, plan["targets"])):
            obj = subjects[subject](base[alg])
            spath = write(os.path.join(work, "%s-%s.json" % (alg, subject)),
                          h.serialize(obj))
            inputs = _subject_check(spath, tp["subject"])
            library = target == "o-operator"
            if library:
                spec = h.SearchSpec(target, tuple(map(Fraction, coeffs)), 4)
                searches.append(Job(
                    "grid_search %s %s" % (target, os.path.basename(spath)),
                    "search", _grid_runner(h, spec, obj),
                    _library_search_check(tp, inputs)))
            else:
                found_path = os.path.join(work, "found-%d.json" % k)
                searches.append(Job(
                    "search %s %s" % (target, os.path.basename(spath)),
                    "search",
                    _cli_runner(api, ["search", target, spath,
                                      "--coeffs=" + ",".join(coeffs),
                                      "--bound", "4", "-o", found_path]),
                    _search_check(target, tp, found_path, inputs),
                    writes=(found_path,)))
            for kind in ("pass", "fail"):
                for i, (planned, cpath) in enumerate(
                        zip(tp[kind], tp[kind + "_files"])):
                    name = "check %s %s %s-%d" % (
                        cmd, os.path.basename(spath), kind, i)
                    if library:
                        run = _o_operator_runner(ops, obj,
                                                 as_fractions(planned))
                    else:
                        run = _cli_runner(api, ["check", cmd, spath, cpath,
                                                "--json"])
                    singles.append(Job(name, kind, run, _single_check(
                        target, tp["subject"], planned, kind, cpath,
                        library)))
        return interleave(searches, singles + [self._probe(api, work)])

    @staticmethod
    def _probe(api, work):
        """check o-operator through the command line, on the regular
        bimodule of ut2 and the zero map, both as written by the package;
        the answer is a pass."""
        h = api.harness
        bimodule = write(os.path.join(work, "ut2-regular-unpermuted.json"),
                         h.serialize(api.bimodule.regular_af_bimodule(
                             h.load_corpus("ut2"))))
        zero = write(os.path.join(work, "zero-map.json"), h.serialize(
            h.LinearMap(3, 3, as_fractions(O.zeros(3, 3)))))
        return Job("check o-operator ut2-regular-unpermuted.json zero-map",
                   "pass", _cli_runner(api, ["check", "o-operator", bimodule,
                                             zero, "--json"]),
                   lambda result, _written: check_report(result, 0, "pass"))


def _candidate(h, target, m):
    m = as_fractions(m)
    if target == "pafybe-symmetric":
        return h.RElement(len(m), m)
    return h.LinearMap(len(m), len(m[0]), m)


def _grid_runner(h, spec, subject):
    return lambda: h.grid_search(spec, subject)


def _o_operator_runner(ops, bimodule, m):
    return lambda: ops.check_o_operator(ops.OOperator(bimodule, m))


def _subject(c, subject):
    if subject == "algebra":
        return {"product": c}
    if subject == "succ-left":
        prec, succ = O.succ_left(c)
        return {"prec": prec, "succ": succ}
    l, r = O.regular_bimodule(c)
    return {"base": {"product": c}, "l": l, "r": r}


def _grid(target, c, subject, coeffs):
    """The acceptance test of a target and its grid of candidates."""
    values = [O.num(v) for v in coeffs]
    n = len(c)
    if target == "rota-baxter":
        return (lambda m: O.first_pair_failure(
            lambda i, j: O.rota_baxter_residual(c, m, i, j), n, n) is None,
            O.grid(n, n, values))
    if target == "pafybe-symmetric":
        return (lambda m: O.is_zero(O.pafybe_residual(
            subject["prec"], subject["succ"], m)),
            O.grid(n, n, values, symmetric=True))
    return (lambda m: _o_operator_failure(subject, m) is None,
            O.grid(n, n, values))


def _o_operator_failure(subject, t):
    c = subject["base"]["product"]
    return O.first_pair_failure(
        lambda i, j: O.o_operator_residual(c, subject["l"], subject["r"], t,
                                           i, j), len(t[0]), len(t[0]))


def _same_subject(doc, expected):
    for key, value in expected.items():
        got = doc[key]
        if isinstance(value, dict):
            _same_subject(got, value)
        else:
            expect(got == value, "the subject file's %r differs from the "
                   "independently permuted corpus algebra" % key)


def _subject_check(spath, expected):
    return cache(lambda: _same_subject(O.read_file(spath), expected))


def _check_found(tp, report, found):
    expect(report["found"] == len(tp["found"]),
           "the report counts %r found, brute force finds %d"
           % (report["found"], len(tp["found"])))
    expect(report["candidates"] == tp["size"],
           "the report counts %r candidates in a grid of %d"
           % (report["candidates"], tp["size"]))
    expect(found == tp["found"],
           "the found set differs from the brute-force enumeration")


def _search_check(target, tp, found_path, inputs):
    def check(result, written):
        inputs()
        expect(result.code == 0, "search exited with %r (%s)"
               % (result.code, result.err.strip()))
        results = json.loads(written[found_path])["results"]
        _check_found(tp, search_report(result),
                     [O.exact(r[_payload_key(target)]) for r in results])
    return check


def _library_search_check(tp, inputs):
    def check(result, _written):
        inputs()
        _check_found(tp, search_report(result),
                     [[list(row) for row in m] for m in result[0]])
    return check


def _single_check(target, s, planned, kind, cpath, library):
    @cache
    def expected():
        m = O.read_file(cpath)[_payload_key(target)]
        expect(m == planned,
               "the candidate file differs from the planned candidate")
        if kind == "pass":
            return None
        if target == "rota-baxter":
            return ("rota-baxter",) + O.first_pair_failure(
                lambda i, j: O.rota_baxter_residual(s["product"], m, i, j),
                len(m), len(m))
        if target == "o-operator":
            return ("o-operator",) + _o_operator_failure(s, m)
        return "pafybe", (), O.pafybe_residual(s["prec"], s["succ"], m)

    def check(result, _written):
        want = expected()
        if library:
            expect(result.passed == (want is None),
                   "verdict %r, expected %r" % (result.passed, want is None))
            if want is not None:
                label, idx, res = result.witness
                expect((label, idx, res) == want,
                       "witness %r at %r differs from the independent "
                       "first failure" % (label, idx))
        elif want is None:
            check_report(result, 0, "pass")
        else:
            check_witness(check_report(result, 1, "fail"), *want)
    return check


def _payload_key(target):
    return "r" if target == "pafybe-symmetric" else "matrix"


# ---------------------------------------------------------------------------
# coboundary: constructions, the coboundary conditions and special cases
# ---------------------------------------------------------------------------

class Coboundary:
    """construct canonical solutions and their special-case bialgebras for
    qt2, t3, ut2 and m2 (writing files); check_coboundary_conditions and
    special_case_conditions on the qt2, t3 and ut2 doubles (pass); seeded
    sparse r-pairs that fail coboundary-1 at (0, 0), and r + e1 (x) e1,
    which fails a cubic condition of each case (fail)."""

    CONSTRUCTED = ("qt2", "t3", "ut2", "m2")
    CHECKED = ("qt2", "t3", "ut2")
    CUBIC = ("qt2", "t3")
    CASES = ("one", "two")
    SPARSE_PER_DOUBLE = 2

    @staticmethod
    def _splittings(api, algs):
        return {alg: api.algebra.from_associative(
            api.harness.load_corpus(alg), "succ-left") for alg in algs}

    def plan(self, api, rng, _work):
        sparse = {}
        for alg, palg in self._splittings(api, self.CHECKED).items():
            double, _r = api.operators.canonical_solution(palg)
            prec = [list(map(list, m)) for m in double.prec]
            succ = [list(map(list, m)) for m in double.succ]
            n = double.dimension
            picked = []
            while len(picked) < self.SPARSE_PER_DOUBLE:
                rp, rs = (_sparse(rng, n) for _ in range(2))
                if not O.is_zero(O.coboundary_1_residual(prec, succ, rp, rs,
                                                         0, 0)):
                    picked.append((rp, rs))
            sparse[alg] = picked
        return {"sparse": sparse}

    def setup(self, api, plan, work):
        h, cob = api.harness, api.coboundary
        splittings = self._splittings(api, self.CONSTRUCTED)
        out = lambda name: os.path.join(work, name)
        constructs, passes, fails = [], [], []
        for alg in self.CONSTRUCTED:
            pre = write(out("pre-%s.json" % alg), h.serialize(splittings[alg]))
            rpath, dpath = out("made-r-%s.json" % alg), \
                out("made-double-%s.json" % alg)
            constructs.append(Job(
                "construct canonical-r " + alg, "construct",
                _cli_runner(api, ["construct", "canonical-r", pre, "-o",
                                  rpath, "--secondary", dpath]),
                _canonical_check(api, rpath, dpath), writes=(rpath, dpath)))
            for case in self.CASES:
                bpath = out("made-bialgebra-%s-%s.json" % (alg, case))
                constructs.append(Job(
                    "construct coboundary %s %s" % (alg, case), "construct",
                    _cli_runner(api, ["construct", "coboundary", dpath, rpath,
                                      "--case", case, "-o", bpath]),
                    _bialgebra_file_check(api, bpath, case), writes=(bpath,)))
        for alg in self.CHECKED:
            double, r = api.operators.canonical_solution(splittings[alg])
            dpath = write(out("double-%s.json" % alg), h.serialize(double))
            for case in self.CASES:
                rp = write(out("rpair-%s-%s.json" % (alg, case)),
                           h.serialize(cob.special_case_rpair(r, case)))
                passes.append(Job(
                    "check coboundary %s %s" % (alg, case), "pass",
                    _cli_runner(api, ["check", "coboundary", dpath, rp,
                                      "--json"]),
                    _coboundary_pass_check(dpath, rp, case)))
                passes.append(Job(
                    "special_case_conditions %s %s" % (alg, case), "pass",
                    _lib_runner(cob, double, r, case),
                    _special_pass_check(dpath, case)))
            for i, (rp_m, rs_m) in enumerate(plan["sparse"][alg]):
                path = write(out("sparse-%s-%d.json" % (alg, i)), h.serialize(
                    cob.RPair(as_fractions(rp_m), as_fractions(rs_m))))
                fails.append(Job(
                    "check coboundary %s sparse-%d" % (alg, i), "fail",
                    _cli_runner(api, ["check", "coboundary", dpath, path,
                                      "--json"]),
                    _sparse_fail_check(dpath, path)))
            if alg in self.CUBIC:
                bumped = [list(row) for row in r]
                bumped[0][0] += 1
                for case in self.CASES:
                    fails.append(Job(
                        "special_case_conditions %s %s r+e1e1" % (alg, case),
                        "fail", _lib_runner(cob, double, bumped, case),
                        _cubic_fail_check(dpath, case)))
        return interleave(constructs, passes, fails)


def _sparse(rng, n):
    m = [[0] * n for _ in range(n)]
    for _ in range(rng.choice((1, 2))):
        m[rng.randrange(n)][rng.randrange(n)] = rng.choice((-1, 1))
    return m


def _lib_runner(cob, double, r, case):
    return lambda: cob.special_case_conditions(double, r, case)


def _canonical_check(api, rpath, dpath):
    def check(result, written):
        expect(result.code == 0, "construct exited with %r (%s)"
               % (result.code, result.err.strip()))
        check_round_trip(api, written[rpath], "the constructed r")
        check_round_trip(api, written[dpath], "the constructed double")
        double = O.read_doc(written[dpath])
        expect(O.read_doc(written[rpath])["r"] ==
               solution_is_certified(double),
               "the constructed r is not the canonical solution")
    return check


def _bialgebra_file_check(api, bpath, case):
    def check(result, written):
        expect(result.code == 0, "construct exited with %r (%s)"
               % (result.code, result.err.strip()))
        check_round_trip(api, written[bpath], "the constructed bialgebra")
        solution_is_certified(O.read_doc(written[bpath]), case)
    return check


def _coboundary_pass_check(dpath, rpath, case):
    def certify():
        r = solution_is_certified(O.read_file(dpath))
        doc = O.read_file(rpath)
        expect((doc["r_prec"], doc["r_succ"]) == O.special_case_pair(r, case),
               "the r-pair file is not the case-%s pair of r" % case)
    inputs = cache(certify)

    def check(result, _written):
        inputs()
        check_report(result, 0, "pass")
    return check


def _special_pass_check(dpath, case):
    inputs = cache(lambda: solution_is_certified(O.read_file(dpath)))

    def check(report, _written):
        inputs()
        expect(report.passed, "special_case_conditions fails on a symmetric "
               "solution, case %s: %r" % (case, report.witness))
    return check


def _sparse_fail_check(dpath, rpath):
    @cache
    def expected():
        d, rp = O.read_file(dpath), O.read_file(rpath)
        return O.coboundary_1_residual(d["prec"], d["succ"], rp["r_prec"],
                                       rp["r_succ"], 0, 0)

    def check(result, _written):
        rep = check_report(result, 1, "fail")
        check_witness(rep, "coboundary-1", (0, 0), expected())
    return check


CUBIC_LABELS = {"one": ("case-one-C", "case-one-D"),
                "two": ("case-two-E", "case-two-F")}


def _cubic_fail_check(dpath, case):
    def certify():
        # r + e1 (x) e1 is symmetric, so every quadratic condition of the
        # case vanishes; its coboundary comultiplications have dual
        # products that are not pre-anti-flexible, so it is no bialgebra
        # and the case conditions must fail at a cubic condition.
        d = O.read_file(dpath)
        r = O.canonical_r(len(d["prec"]))
        r[0][0] += 1
        expect(r == O.transpose(r), "r + e1 (x) e1 is not symmetric")
        comult = O.coboundary_comult(d["prec"], d["succ"],
                                     *O.special_case_pair(r, case))
        expect(O.pre_af_first_failure(*O.dual_products(*comult)) is not None,
               "r + e1 (x) e1 gives a pre-anti-flexible dual")
    inputs = cache(certify)

    def check(report, _written):
        inputs()
        expect(not report.passed, "special_case_conditions passes on "
               "r + e1 (x) e1, case %s" % case)
        label, idx, _res = report.witness
        expect(label in CUBIC_LABELS[case] and len(idx) == 1,
               "witness %r at %r is not a cubic condition of case %s"
               % (label, idx, case))
    return check
