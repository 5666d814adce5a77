"""List the executable lines of the dtmor package that a fixed set of runs
never reaches.

    python tools/unreached.py

In one process, with ``OPENBLAS_NUM_THREADS=1`` and the package imported
from this tree's own ``src/``, it runs under ``sys.settrace``:

- the twelve ``COMMANDS`` of ``tools/byte_identity.py``, each as
  ``python -m dtmor`` would run it, in a temporary directory;
- ``generate``, ``reduce --solver rksm-pm1 --hsv-tol`` and ``simulate`` on
  a written system;
- the python block under README's "Library sketch".

For each module it then prints how many of its executable lines (those the
compiler gave an instruction) were not reached, and the ranges of them, each
with its first source line.  A range ends at the next reached line.  Lines
that run only when an exception is raised, or when an input is rejected,
show up here as well as code that no command uses.
"""
from __future__ import annotations

import contextlib
import io
import os
import re
import runpy
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"   # before numpy loads, as byte_identity.py runs
ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dtmor"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

from byte_identity import COMMANDS, SYSTEM  # noqa: E402

EXTRA = [
    ["generate", "--kind", "gauss-seidel", "--size", "8", *SYSTEM, "--out", "sys"],
    ["reduce", "--system", "sys", "--tau", "20", "--method", "tlbt", "--hsv-tol", "1e-3",
     "--solver", "rksm-pm1", "--out", "rom-hsv"],
    ["simulate", "--system", "sys", "--input", "seeded-random", "--horizon", "30",
     "--out", "trace.csv"],
]


def executable_lines(path: Path) -> set[int]:
    """Every line of a module's source that some instruction is attributed to."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def readme_sketch() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Library sketch"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def run_all() -> dict[str, set[int]]:
    """Run every command and the sketch under a tracer; the reached lines by file."""
    reached: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        reached.setdefault(name, set()).add(frame.f_lineno)
        return local

    cwd = os.getcwd()
    sys.settrace(tracer)
    try:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            os.chdir(tmp)
            for command in [[*c, *SYSTEM] for c in COMMANDS] + EXTRA:
                sys.argv = ["dtmor", *command]
                try:
                    runpy.run_module("dtmor", run_name="__main__", alter_sys=True)
                except SystemExit as exc:
                    if exc.code:
                        raise RuntimeError(f"dtmor {' '.join(command)} exited {exc.code}")
            exec(compile(readme_sketch(), str(ROOT / "README.md"), "exec"), {})
    finally:
        sys.settrace(None)
        os.chdir(cwd)
    return reached


def unreached_ranges(lines: list[int], reached: set[int]) -> list[tuple[int, int]]:
    """Runs of consecutive unreached entries of the sorted executable ``lines``."""
    ranges: list[tuple[int, int]] = []
    previous_missed = False
    for line in lines:
        missed = line not in reached
        if missed and previous_missed:
            ranges[-1] = (ranges[-1][0], line)
        elif missed:
            ranges.append((line, line))
        previous_missed = missed
    return ranges


def main() -> int:
    reached = run_all()
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = sorted(executable_lines(path))
        seen = reached.get(str(path), set())
        missed = sum(1 for line in lines if line not in seen)
        total += missed
        print(f"{path.name}: {missed} of {len(lines)} executable lines unreached")
        source = path.read_text(encoding="utf-8").splitlines()
        for start, end in unreached_ranges(lines, seen):
            span = str(start) if start == end else f"{start}-{end}"
            print(f"  {span:>9}  {source[start - 1].strip()}")
    print(f"{total} executable lines unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
