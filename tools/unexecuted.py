"""Report the statements of src/herdsim that the test suite never runs.

    python tools/unexecuted.py [pytest arguments]

Runs pytest in this process under `sys.settrace`, with line events only in
frames of src/herdsim and hypothesis deadlines off (tracing slows every
example down), then prints each statement no test executed as
`file:line: text` and their count. Definitions, imports and docstrings are
not listed. The exit status is pytest's. Code that runs only in the worker
processes of a pool (`--jobs 2`) is not seen. Stdlib only, apart from
pytest and hypothesis.
"""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "herdsim"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
SKIPPED = DOCUMENTED[1:] + (ast.Import, ast.ImportFrom)
hits = set()


def local(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return local


def scope(frame, event, arg):
    return local if frame.f_code.co_filename.startswith(str(SRC)) else None


def statements(path):
    """(first line, lines of its header) of every statement that is no
    definition, import or docstring; a compound statement's header ends
    where its body starts."""
    tree = ast.parse(path.read_text())
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, DOCUMENTED)
                  and ast.get_docstring(node, clean=False) is not None}
    for node in ast.walk(tree):
        if (isinstance(node, ast.stmt) and not isinstance(node, SKIPPED)
                and id(node) not in docstrings):
            body = getattr(node, "body", None)
            end = body[0].lineno - 1 if body else node.end_lineno
            yield node.lineno, range(node.lineno, max(end, node.lineno) + 1)


class Untimed:
    """Hypothesis deadlines off, on top of the profile pytest loaded."""

    @pytest.hookimpl(trylast=True)
    def pytest_configure(self, config):
        from hypothesis import settings  # here, so pytest can rewrite it
        settings.register_profile("untimed", settings.default, deadline=None)
        settings.load_profile("untimed")


def main(args):
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(scope)
    try:
        status = pytest.main(list(args), plugins=[Untimed()])
    finally:
        sys.settrace(None)
    missed = []
    for path in sorted(SRC.rglob("*.py")):
        lines = path.read_text().splitlines()
        for first, span in sorted(statements(path)):
            if not any((str(path), n) in hits for n in span):
                missed.append(f"{path.relative_to(ROOT)}:{first}: "
                              f"{lines[first - 1].strip()}")
    for line in missed:
        print(line)
    print(f"{len(missed)} statements never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
