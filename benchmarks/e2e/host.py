"""Host-regime stamp: what machine state a measurement was taken in.

Every output record carries this stamp, so a reader can tell a number
measured with two free cores from one measured on a starved host. A run
that needs more ranks than there are usable cores, or that starts while
the load average already exceeds the core count, is flagged and its
wall-clock metrics are listed as unresolved.
"""

from __future__ import annotations

import glob
import os
import platform

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")


def usable_cores() -> int:
    """Cores this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def cache_sizes() -> dict:
    """Per-level cache sizes of cpu0 where sysfs exposes them."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        out[f"L{level}_{kind.lower()}"] = size
    return out


def git_commit(root: str):
    """HEAD commit of ``root`` read from ``.git`` (None outside a repo)."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref:"):
            return head
        with open(os.path.join(root, ".git", head.split(None, 1)[1])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def stamp(root: str, env) -> dict:
    """The host-regime stamp (taken at the start of a run); ``env`` is
    the environment the workers get."""
    try:
        load = os.getloadavg()[0]
    except OSError:
        load = None
    return {
        "usable_cores": usable_cores(),
        "cpu_count": os.cpu_count(),
        "loadavg_1min_at_start": load,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas_threads": {v: env.get(v) for v in BLAS_THREAD_VARS},
        "cache_sizes": cache_sizes(),
        "git_commit": git_commit(root),
    }


def regime_flags(host: dict, ranks: int) -> list:
    """Reasons why this host cannot resolve wall-clock metrics."""
    flags = []
    cores = host["usable_cores"]
    if ranks > cores:
        flags.append(f"ranks ({ranks}) > usable cores ({cores})")
    load = host["loadavg_1min_at_start"]
    if load is not None and load > cores:
        flags.append(f"load average at start ({load:.2f}) > usable cores "
                     f"({cores})")
    return flags
