#!/usr/bin/env python3
"""Raw and code lines of each module of src/nodal_kit, and their totals.

A line is code unless it is blank, a `#` comment, or inside a module, class
or function docstring.  Stdlib only:  python scripts/code_lines.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nodal_kit"
DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

totals = [0, 0]
for path in sorted(SRC.glob("*.py")):
    text = path.read_text()
    lines = text.splitlines()
    skip = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if isinstance(node, DOC_OWNERS) and body and isinstance(body[0], ast.Expr):
            if isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
                skip.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = sum(1 for n, line in enumerate(lines, 1) if n not in skip and line.strip()[:1] not in ("", "#"))
    totals = [totals[0] + len(lines), totals[1] + code]
    print(f"{path.name:<16} {len(lines):>6} raw {code:>6} code")
print(f"{'total':<16} {totals[0]:>6} raw {totals[1]:>6} code")
