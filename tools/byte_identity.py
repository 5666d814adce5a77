"""Run one fixed set of dtmor commands in two source trees and compare
their outputs byte for byte.

    python tools/byte_identity.py PARENT_TREE CHANGE_TREE [--keep DIR]

Each tree runs the commands as ``python -m dtmor`` from its own ``src/``,
with ``OPENBLAS_NUM_THREADS=1``, since outputs are byte-identical only at a
fixed BLAS thread count.  The set covers every solver: ``pipeline --method
both`` with ``dense``, ``rksm-pm1``, ``smith`` and ``rksm-disc``, ``bounds
--balanced-expressions`` on the dense job's two models, and ``gramian`` with
``dense``, ``smith`` and ``rksm-disc``.  The script prints each file that
differs or exists in one tree only, with the largest relative difference
between its numbers where the text around them is the same ("structure
differs" otherwise), and exits 1 if there is any, 0 if every file is
identical, and 2 if a command fails.  ``--keep DIR`` writes the
outputs to DIR/parent and DIR/change instead of a temporary directory.
"""
from __future__ import annotations

import argparse
import filecmp
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SYSTEM = ["--inputs", "2", "--outputs", "2", "--seed", "1"]
COMMANDS = [
    ["pipeline", "--kind", "gauss-seidel", "--size", "20", "--solver", "dense",
     "--tau", "50", "--order", "10", "--method", "both", "--out", "dense"],
    ["pipeline", "--kind", "jacobi", "--size", "20", "--solver", "rksm-pm1",
     "--tau", "50", "--order", "10", "--method", "both", "--out", "rksm-pm1"],
    ["pipeline", "--kind", "gauss-seidel", "--size", "12", "--solver", "smith",
     "--tau", "30", "--order", "6", "--method", "both", "--out", "smith"],
    ["pipeline", "--kind", "gauss-seidel", "--size", "12", "--solver", "rksm-disc",
     "--tau", "30", "--order", "6", "--method", "both", "--out", "rksm-disc"],
    ["bounds", "--kind", "gauss-seidel", "--size", "20", "--rom", "dense/rom_tlbt",
     "--tau", "50", "--balanced-expressions", "--constants", "eigen",
     "--out", "bounds_tlbt.json"],
    ["bounds", "--kind", "gauss-seidel", "--size", "20", "--rom", "dense/rom_bt",
     "--tau", "50", "--balanced-expressions", "--out", "bounds_bt.json"],
    ["gramian", "--kind", "gauss-seidel", "--size", "12", "--side", "obs", "--tau", "12",
     "--solver", "dense", "--out", "gramian-dense"],
    ["gramian", "--kind", "gauss-seidel", "--size", "12", "--side", "obs", "--tau", "12",
     "--solver", "smith", "--out", "gramian-smith"],
    ["gramian", "--kind", "jacobi", "--size", "20", "--tau", "inf",
     "--solver", "rksm-disc", "--out", "gramian-rksm-disc"],
]


def run_tree(tree: Path, out: Path) -> None:
    """Run every command with ``tree``'s own package, writing into ``out``."""
    out.mkdir(parents=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree.resolve() / "src"))
    for command in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "dtmor", *command, *SYSTEM],
                              cwd=out, env=env, capture_output=True, text=True)
        if done.returncode:
            print(f"{tree}: dtmor {' '.join(command)} exited {done.returncode}\n{done.stderr}",
                  file=sys.stderr)
            sys.exit(2)


def differing(a: Path, b: Path) -> list[str]:
    """Relative paths of the files that differ or exist under one root only."""
    files = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(str(f) for f in files
                  if not ((a / f).is_file() and (b / f).is_file()
                          and filecmp.cmp(a / f, b / f, shallow=False)))


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def number_difference(a: Path, b: Path) -> str:
    """The largest relative difference |x - y| / max(|x|, |y|) between the
    numbers of two text files whose text around the numbers is the same, or
    'structure differs'."""
    try:
        text_a, text_b = a.read_text(encoding="utf-8"), b.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return "structure differs"
    if _NUMBER.split(text_a) != _NUMBER.split(text_b):
        return "structure differs"
    worst = max((abs(x - y) / max(abs(x), abs(y))
                 for x, y in zip(map(float, _NUMBER.findall(text_a)),
                                 map(float, _NUMBER.findall(text_b))) if x != y), default=0.0)
    return f"largest relative difference {worst:.1e}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--keep", type=Path, help="write the outputs here")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        root = args.keep or Path(tmp)
        run_tree(args.parent, root / "parent")
        run_tree(args.change, root / "change")
        files = sum(1 for p in (root / "parent").rglob("*") if p.is_file())
        diffs = {name: number_difference(root / "parent" / name, root / "change" / name)
                 for name in differing(root / "parent", root / "change")}
    for name, detail in diffs.items():
        print(f"differs: {name} ({detail})")
    print(f"{len(COMMANDS)} commands, {files} files, {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
