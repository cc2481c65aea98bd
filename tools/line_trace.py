"""Lines of the w1clt package that the test suite never runs.

Runs pytest in this interpreter under a line tracer (``sys.settrace`` and
``threading.settrace``) that records every line executed in a file under a
``w1clt`` directory, then prints, module by module, the executable lines that
never ran.  A line is executable when some instruction of a code object
compiled from the module carries it (``co_lines()``).  The demos and
acceptance criterion 7 are deselected: under the tracer they would take most
of the run.  Lines that run only in forked helper processes, off Linux or
under ``__main__`` always show as unrun.  The tracer slows the suite by about
half, so it is a tool to run by hand, not a test.

Usage, from anywhere (extra arguments go to pytest)::

    python tools/line_trace.py [pytest arguments]

It needs only the standard library and pytest, and exits with pytest's code.
"""
from __future__ import annotations

import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "w1clt"
DESELECT = ["--deselect", "tests/test_demos.py",
            "--deselect", "tests/test_acceptance.py::test_criterion_7_intermittent_threshold_behavior"]
_MARK = os.sep + "w1clt" + os.sep


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every instruction of every code object compiled from ``path``."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        # line 0 (a module's first instruction) and None mark no source line
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_pytest(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit code and the lines run in each traced file, keyed by resolved path."""
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def enter(frame, event, arg):
        return local if _MARK in frame.f_code.co_filename else None

    import pytest

    threading.settrace(enter)
    sys.settrace(enter)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *DESELECT, *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_path: dict[Path, set[int]] = defaultdict(set)
    for name, lines in ran.items():
        by_path[Path(name).resolve()] |= lines
    return int(code), by_path


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    code, ran = traced_pytest(argv)
    total = unrun_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        unrun = sorted(lines - ran.get(path.resolve(), set()))
        total += len(lines)
        unrun_total += len(unrun)
        listed = ", ".join(map(str, unrun)) if unrun else "-"
        print(f"{path.relative_to(ROOT)}: {len(unrun)} of {len(lines)} unrun: {listed}")
    print(f"total: {unrun_total} of {total} executable lines unrun")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
