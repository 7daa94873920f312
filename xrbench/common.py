"""Shared helpers: locating the program, statistics, provenance.

The benchmark runs from the root of a source checkout and imports the
program from ``src/``; nothing here is installed.  Every statistic the
benchmark reports goes through :func:`percentile` (nearest rank) and
:func:`tail_percentile`, so the run output, the compare mode and the
tests share one definition.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import resource
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: Percentiles a tail metric may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def program_root() -> Path:
    """The checkout root: the working directory, which must hold src/repro."""
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise ProgramMissing(
            f"no src/repro under {root}; run from the root of a checkout"
        )
    return root


def use_program() -> Path:
    """Put the checkout's ``src`` first on ``sys.path``; returns the root."""
    root = program_root()
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return root


def program_env(root: Path) -> dict[str, str]:
    """Environment for a child process that runs the program."""
    env = dict(os.environ)
    paths = [str(root / "src"), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def workload_rng(seed: int, holdout: bool, stream: str) -> random.Random:
    """The random stream ``stream`` of a workload seed.

    Held-out seeds draw from a disjoint family, so a claim tuned on the
    ordinary seeds can be re-checked on inputs nobody has looked at.
    """
    family = "holdout" if holdout else "main"
    digest = hashlib.sha256(f"{family}:{seed}:{stream}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# ------------------------------------------------------------ statistics


def _rank(count: int, pct: float) -> int:
    # Rounded first, so 99.9 % of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[_rank(len(values), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct``."""
    return count - _rank(count, pct)


def tail_percentile(count: int) -> tuple[float, bool]:
    """The tail percentile for ``count`` samples and whether it meets the
    ten-beyond rule.

    The tail is the highest ladder percentile with at least
    :data:`TAIL_MIN_BEYOND` samples beyond it.  When even the lowest rung
    has fewer (short runs of slow operations), the lowest rung is used and
    the result says so, so a reader never mistakes it for a real tail.
    """
    for pct in TAIL_LADDER:
        if samples_beyond(count, pct) >= TAIL_MIN_BEYOND:
            return pct, True
    return TAIL_LADDER[-1], False


def summarize(values: list[float]) -> dict:
    """Median, tail (with its percentile and support) and sample count."""
    pct, meets_rule = tail_percentile(len(values))
    return {
        "p50": percentile(values, 50.0),
        "tail": percentile(values, pct),
        "tail_percentile": pct,
        "tail_beyond": samples_beyond(len(values), pct),
        "tail_meets_rule": meets_rule,
        "samples": len(values),
    }


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def digest_rows(rows: list[list[str]]) -> str:
    """Digest of answer rows in the canonical ``serialize_rows`` form."""
    return hashlib.sha256(
        json.dumps(rows, separators=(",", ":")).encode()
    ).hexdigest()


def digest_lines(lines) -> str:
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


# ------------------------------------------------------------ resources


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live child process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ------------------------------------------------------------ provenance


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(root: Path) -> str:
    """Digest of every program source file (works outside git too)."""
    files = sorted((root / "src" / "repro").rglob("*.py"))
    hasher = hashlib.sha256()
    for path in files:
        hasher.update(str(path.relative_to(root)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def provenance(root: Path, seed: int, holdout: bool) -> dict:
    """Where and on what a result was measured."""
    toplevel = _git(root, "rev-parse", "--show-toplevel")
    in_git = toplevel is not None and Path(toplevel).resolve() == root.resolve()
    sha = _git(root, "rev-parse", "HEAD") if in_git else None
    dirty = None
    if in_git:
        status = _git(root, "status", "--porcelain", "--", "src")
        dirty = bool(status) if status is not None else None
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_digest": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "seed": seed,
        "seed_family": "holdout" if holdout else "main",
    }


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)
