"""The command-line runs of tests/golden.py give the outcomes recorded in
tests/golden.json (rewritten by `python tests/golden.py --write`)."""

import golden
from antiflex.algebra import ALGEBRA_KINDS, PREALGEBRA_KINDS
from antiflex.harness import CHECK_COMMANDS, CONSTRUCTIONS, SEARCH_TARGETS


def test_golden_runs_match_the_manifest():
    assert golden.differences(golden.load_manifest(), golden.sweep()) == []


def test_golden_corpus_reaches_every_exit_code_of_every_command():
    # every command succeeds on some input and rejects others, and every
    # check also fails on some input
    manifest = golden.load_manifest()
    for verb, commands in (("check", CHECK_COMMANDS),
                           ("construct", CONSTRUCTIONS),
                           ("search", SEARCH_TARGETS),
                           ("oracle", ALGEBRA_KINDS + PREALGEBRA_KINDS)):
        for command in commands:
            exits = manifest["%s %s" % (verb, command)]["exits"]
            wanted = {"0", "1", "2"} if verb in ("check", "oracle") \
                else {"0", "2"}
            assert wanted <= exits.keys(), (verb, command, exits)
