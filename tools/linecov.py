"""Line coverage of src/semplan under the test suite, with the standard library only.

    PYTHONPATH=src python tools/linecov.py [PYTEST_ARGS ...]

Runs pytest in this process (default arguments: -q -p no:cacheprovider
tests) with a sys.settrace hook, also set for new threads, that records
each line executed in src/semplan. Then it prints, per module, how many of
its executable lines ran and the numbers of those that never did, in runs
of consecutive lines. A line is executable when an instruction of the
module's compiled code maps to it. Code that runs only in a child process
(the CLI's subprocess tests, ``python -m semplan``) is not seen, so its
lines are listed as never run. Tracing makes the suite about twice as slow.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "semplan"
PREFIX = str(SRC) + os.sep

executed: defaultdict[str, set] = defaultdict(set)


def _line(frame, event, arg):
    if event == "line":
        executed[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(PREFIX):
        return None
    executed[filename].add(frame.f_lineno)
    return _line


def executable_lines(path: Path) -> set:
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _ranges(lines: list) -> str:
    """Sorted line numbers as "a-b" runs of consecutive numbers."""
    runs = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}-{b}" if b > a else f"{a}" for a, b in runs)


def report() -> str:
    rows, run_total, lines_total = [], 0, 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - executed[str(path)])
        run_total += len(lines) - len(missed)
        lines_total += len(lines)
        rows.append(f"{path.name:18} {len(lines) - len(missed):4}/{len(lines):<4} "
                    + _ranges(missed))
    rows.append(f"{'total':18} {run_total:4}/{lines_total:<4}")
    return "\n".join(rows)


def main(argv: list[str]) -> int:
    import pytest

    threading.settrace(_call)
    sys.settrace(_call)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(report())
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
