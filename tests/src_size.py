"""Print the size of src/antiflex: its lines, bytes, AST nodes and code
objects (each module's compiled code and every code object nested in it).

Run as `python tests/src_size.py [TREE]` for one tree, or as
`python tests/src_size.py PARENT CHANGE` for two, with the change in each
count.  A tree is a checkout's root or its src/antiflex; with none given it
is this checkout.  It gates nothing."""

import ast
import pathlib
import sys

COUNTS = ("lines", "bytes", "ast_nodes", "code_objects")


def code_objects(code):
    return 1 + sum(code_objects(c) for c in code.co_consts
                   if hasattr(c, "co_code"))


def sizes(tree):
    """The four counts of the modules of a tree."""
    src = pathlib.Path(tree)
    if (src / "src" / "antiflex").is_dir():
        src = src / "src" / "antiflex"
    texts = {p: p.read_text() for p in sorted(src.glob("*.py"))}
    return (sum(t.count("\n") for t in texts.values()),
            sum(len(t.encode()) for t in texts.values()),
            sum(len(list(ast.walk(ast.parse(t)))) for t in texts.values()),
            sum(code_objects(compile(t, str(p), "exec"))
                for p, t in texts.items()))


trees = sys.argv[1:] or [pathlib.Path(__file__).parents[1]]
if len(trees) == 1:
    for name, n in zip(COUNTS, sizes(trees[0])):
        print("%s %d" % (name, n))
else:
    parent, change = trees
    print("%-13s %10s %10s %8s" % ("", "parent", "change", "delta"))
    for name, a, b in zip(COUNTS, sizes(parent), sizes(change)):
        print("%-13s %10d %10d %+8d" % (name, a, b, b - a))
