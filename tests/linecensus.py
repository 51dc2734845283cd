"""Line census: the statements of ``src/radact`` that a run never executes,
module by module, so that a test can be written for each refusal or branch
that nothing reaches.

Run from the repository root::

    python tests/linecensus.py pytest [pytest arguments]
    python tests/linecensus.py verify --monoid-max 2

``pytest`` runs the suite in this process, with the given arguments;
``verify`` builds ``default_universe`` at the given bounds and runs
``verify_all`` once.  Either run goes under a ``sys.settrace`` hook that
records the lines run in frames whose code lives in ``src/radact`` and
ignores every other frame.  The hook is set before ``radact`` is imported,
so module-level statements count as run when the import runs them.  Code
that runs in a child process or another thread is not seen.

A statement's own lines are the lines it spans that no statement nested in
it spans: a compound statement's header, its ``except``, ``else`` and
``finally`` lines, a decorated definition's decorators.  A statement counts
when the compiled module has bytecode on one of its own lines (docstrings,
``global`` and bare ``else:`` lines have none), and it ran when one of those
lines was traced.  Each module that has statements not run is printed with
them, one line each: its first line number and source text.

Tracing makes a run several times slower.  pytest does not collect this
file.
"""

import argparse
import ast
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "radact"


def statements(path: Path) -> list[tuple[int, frozenset]]:
    """(first line, executable own lines) of every statement of the module
    whose own lines carry bytecode, in source order."""
    source = path.read_text()
    with_code = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        with_code.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno]
                    + [d.lineno for d in getattr(node, "decorator_list", ())])
        own = set(range(first, node.end_lineno + 1))
        for inner in ast.walk(node):
            if inner is not node and isinstance(inner, ast.stmt):
                own.difference_update(range(inner.lineno,
                                            inner.end_lineno + 1))
        own &= with_code
        if own:
            out.append((first, frozenset(own)))
    return sorted(out, key=lambda s: s[0])


def traced(run) -> dict[str, set]:
    """The lines of ``src/radact`` that ``run()`` executes, by file name."""
    prefix = str(SRC) + "/"
    lines = {}
    outside = set()

    def on_line(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        if code in outside:
            return None
        name = code.co_filename
        if name not in lines:
            if not str(Path(name).resolve()).startswith(prefix):
                outside.add(code)
                return None
            lines[name] = set()
        return on_line

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    by_path = {}
    for name, seen in lines.items():
        by_path.setdefault(str(Path(name).resolve()), set()).update(seen)
    return by_path


def report(run_lines):
    """Print the statements not run, module by module, and their total."""
    missed_total = counted = 0
    for path in sorted(SRC.glob("*.py")):
        seen = run_lines.get(str(path), set())
        stmts = statements(path)
        counted += len(stmts)
        missed = [first for first, own in stmts if not own & seen]
        if not missed:
            continue
        missed_total += len(missed)
        text = path.read_text().splitlines()
        print(f"# {path.name}: {len(missed)} of {len(stmts)} statements "
              f"not run")
        for first in missed:
            print(f"{first:>6}  {text[first - 1].strip()}")
    print(f"total: {missed_total} of {counted} statements not run")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="run", required=True)
    sub.add_parser("pytest", help="run the test suite in process; the "
                   "other arguments go to pytest")
    p = sub.add_parser("verify", help="run verify_all once")
    p.add_argument("--monoid-max", type=int, default=None)
    p.add_argument("--act-max", type=int, default=None)
    args, rest = ap.parse_known_args()
    if rest and args.run != "pytest":
        ap.error(f"unrecognized arguments: {' '.join(rest)}")
    sys.path.insert(0, str(ROOT / "src"))

    if args.run == "pytest":
        import pytest

        outcome = []
        run_lines = traced(lambda: outcome.append(pytest.main(rest)))
        print(f"pytest exit code {int(outcome[0])}")
    else:
        def run():
            from radact import verifier
            from radact.universe import default_universe

            bounds = {k: v for k, v in vars(args).items()
                      if k in ("monoid_max", "act_max") and v is not None}
            verifier.verify_all(default_universe(**bounds))

        run_lines = traced(run)
    report(run_lines)


if __name__ == "__main__":
    main()
