"""Shared plumbing: program import, environment pinning, digests, stats.

The benchmark lives beside the program it measures and drives it only
through the public API of ``src/repro``.  It imports that tree
explicitly (never an installed copy) so a checkout without ``src/``
fails loudly instead of silently measuring some other build.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / ".work"
REFERENCE_DIR = BENCH_DIR / "references"

#: Seed the benchmark was written against, and the seed held back for
#: confirming a later claim.  Both have committed reference digests.
DEV_SEED = 1
HELDOUT_SEED = 2


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/repro`` to measure."""


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        raise ProgramMissing(f"no program to measure: {package} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ProgramMissing(f"imported repro from {where}, not {SRC}")
    return repro


def pin_environment(cache_dir: Path) -> List[str]:
    """Unset every ``REPRO_*`` knob; point the result cache at scratch.

    The program's defaults hold inside the benchmark for every knob that
    changes what it does or how fast (``REPRO_PROFILE``, ``_ORACLE``,
    ``_FASTFWD``, ``_SCALE``, ``_SEED``, ``_JOBS``, ``_CACHE``,
    ``_CHECKPOINT``, ``_NUMPY``, ...).  The cache always lives in a
    fresh scratch dir: a warm ``.repro-cache/`` would make fig7 simulate
    nothing, and a stray ``REPRO_PROFILE=1`` adds ~30% to every tick.
    Returns the knobs the caller's shell had set, for the result stamp.
    """
    overridden = sorted(n for n in os.environ if n.startswith("REPRO_"))
    for name in overridden:
        del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    # Progress lines only go to a tty by default; pin that default so
    # a terminal and a pipe run the same code.
    os.environ["REPRO_PROGRESS"] = "0"
    return overridden


def program_env() -> Dict[str, str]:
    """Environment for subprocesses that import the program."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------


def canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload: object) -> str:
    """Short content digest of one cell's canonical result."""
    return hashlib.sha256(canonical(payload).encode("utf-8")).hexdigest()[:20]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Committed per-cell digests for ``seed``, if this seed has them."""
    path = reference_path(workload)
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def record_reference(workload: str, seed: int, cells: Dict[str, str]) -> None:
    path = reference_path(workload)
    data = (
        json.loads(path.read_text()) if path.is_file()
        else {"workload": workload, "dev_seed": DEV_SEED,
              "heldout_seed": HELDOUT_SEED, "seeds": {}}
    )
    data["seeds"][str(seed)] = dict(sorted(cells.items()))
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Numbers
# ----------------------------------------------------------------------


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size; with ``children`` the larger of self and
    the biggest waited-for descendant (Linux reports KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def stamp(seed: int, timers: Dict[str, str]) -> Dict[str, object]:
    """Provenance of one result: code, interpreter, machine, timers, seed."""
    from repro.experiments import runner

    try:
        import numpy  # noqa: F401

        has_numpy = True
    except ImportError:
        has_numpy = False
    sha = None  # a checkout exported without .git
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "code_version": runner.code_version(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "numpy": has_numpy,
        "timers": timers,
        "seed": seed,
    }
