"""Summaries of timing samples, output digests and metric-name checks."""
from __future__ import annotations

import hashlib
import json
import math
import os
import re
import statistics
from pathlib import Path

import numpy as np

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# candidate tail percentiles, highest first
_TAILS = (99.9, 99.0, 90.0)


def tail_percentile(samples) -> tuple[float, float] | None:
    """(p, value) for the highest percentile with at least ten samples
    beyond it, or None when there are too few samples for any."""
    n = len(samples)
    for p in _TAILS:
        if math.floor(n * (1.0 - p / 100.0) + 1e-9) >= 10:
            return p, float(np.percentile(samples, p))
    return None


def summarize(samples) -> dict:
    """Median and sample count of a timing series, plus the tail percentile
    that the count supports (see :func:`tail_percentile`)."""
    if not samples:
        raise ValueError("no samples")
    out = {"median": statistics.median(samples), "samples": len(samples)}
    tail = tail_percentile(samples)
    if tail is not None:
        out[f"p{tail[0]:g}"] = tail[1]
    return out


def digest_files(root: Path, names) -> str:
    """SHA-256 over the relative paths and bytes of the named files under
    ``root``; a directory name covers every file beneath it."""
    h = hashlib.sha256()
    paths = []
    for name in names:
        p = root / name
        paths += sorted(q for q in p.rglob("*") if q.is_file()) if p.is_dir() else [p]
    for p in sorted(paths):
        h.update(p.relative_to(root).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def digest_values(values: dict) -> str:
    """SHA-256 over named numbers and arrays, bit for bit."""
    h = hashlib.sha256()
    for key in sorted(values):
        arr = np.ascontiguousarray(np.asarray(values[key], dtype=float))
        h.update(f"{key}:{arr.shape}\0".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class DigestBook:
    """First digest seen for each key; later digests must equal it.

    Backed by a JSON file so that reruns in later processes are compared
    with the first one too.
    """

    def __init__(self, path: Path):
        self.path = path
        self.first = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, digest: str) -> bool:
        if key not in self.first:
            self.first[key] = digest
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.first, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
            return True
        return self.first[key] == digest
