"""Print the size of src/antiflex: its lines, bytes, AST nodes and code
objects (each module's compiled code and every code object nested in it).
Run as `python tests/src_size.py [path to src/antiflex]`; it gates nothing."""

import ast
import pathlib
import sys

SRC = pathlib.Path(sys.argv[1] if sys.argv[1:] else
                   pathlib.Path(__file__).parents[1] / "src" / "antiflex")


def code_objects(code):
    return 1 + sum(code_objects(c) for c in code.co_consts
                   if hasattr(c, "co_code"))


texts = {p: p.read_text() for p in sorted(SRC.glob("*.py"))}
print("lines %d" % sum(t.count("\n") for t in texts.values()))
print("bytes %d" % sum(len(t.encode()) for t in texts.values()))
print("ast_nodes %d" % sum(len(list(ast.walk(ast.parse(t))))
                           for t in texts.values()))
print("code_objects %d" % sum(code_objects(compile(t, str(p), "exec"))
                              for p, t in texts.items()))
