"""Print the size of the source tree src/, the size measures of ROADMAP aim 2.

    python tools/source_size.py

Prints the raw line count of the .py files under src/, summed, then the
code lines of each file and their total. A code line is a line that holds a
token other than a comment and is not part of a module, class or function
docstring. Stdlib only; runs from any working directory.
"""

import ast
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path) -> int:
    with open(path, "rb") as fh:
        lines = {line for tok in tokenize.tokenize(fh.readline)
                 if tok.type not in SKIP
                 for line in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(path.read_bytes())):
        if (isinstance(node, DOCUMENTED)
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            lines -= set(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main() -> None:
    paths = sorted((ROOT / "src").rglob("*.py"))
    print(sum(path.read_bytes().count(b"\n") for path in paths))
    total = 0
    for path in paths:
        n = code_lines(path)
        print(f"{n:5d} {path.relative_to(ROOT)}")
        total += n
    print(total, "code lines")


if __name__ == "__main__":
    main()
