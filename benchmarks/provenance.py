"""Where a result came from: source revision, machine and thread settings.

Library versions and the BLAS build are reported by the worker process,
which is the one that imports them.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path


def git_sha(root):
    """``HEAD`` of the checkout, or ``None`` outside a git repository."""
    if not (Path(root) / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_sha256(root):
    """Hash of the package sources, so results from a non-git checkout
    still name the code they measured."""
    h = hashlib.sha256()
    src = Path(root) / "src"
    for path in sorted(src.rglob("*.py")) + [Path(root) / "pyproject.toml"]:
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def cache_sizes():
    """CPU cache sizes in bytes as ``getconf`` reports them."""
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    sizes = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE"):
            sizes[parts[0]] = int(parts[1])
    return sizes


def collect(root, seed, worker_env):
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root),
        "seed": seed,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cache_bytes": cache_sizes(),
        "worker_thread_env": {k: v for k, v in sorted(worker_env.items())
                              if k.endswith("_NUM_THREADS")},
        "inherited_thread_env": {k: v for k, v in sorted(os.environ.items())
                                 if k.endswith("_NUM_THREADS")
                                 or k.startswith("OMP_")},
    }
