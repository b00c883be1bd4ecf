"""CPU time and peak memory of this process and every live descendant.

``os.times()`` only counts children that have been reaped, so the CPU a warm
worker pool burns is invisible to it until the pool is closed.  This module
reads ``/proc/<pid>/stat`` and ``VmHWM`` from ``/proc/<pid>/status`` for every
live descendant instead (stdlib only; Linux ``/proc`` layout).
"""

from __future__ import annotations

import os
import signal
import sys
import time

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    """The fields after ``comm`` in ``/proc/<pid>/stat`` (``None`` if gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            data = handle.read()
    except OSError:
        return None
    # comm may hold spaces and parentheses; it ends at the last ')'.
    return data[data.rfind(")") + 2:].split()


def descendants(root: int | None = None) -> list[int]:
    """Pids of every live process below ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    found: list[int] = []
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            found.append(child)
            frontier.append(child)
    return found


def process_cpu_s(pid: int) -> float:
    """User + system CPU of ``pid`` plus its reaped children (0 if gone)."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    # utime, stime, cutime, cstime are fields 14-17 of stat (11-14 after comm).
    return sum(int(value) for value in fields[11:15]) / _TICKS


def live_descendants_cpu_s() -> float:
    """CPU consumed so far by every live descendant of this process."""
    return sum(process_cpu_s(pid) for pid in descendants())


def tree_cpu_s() -> float:
    """CPU of the whole process tree: self, reaped children, live descendants."""
    times = os.times()
    own = times.user + times.system + times.children_user + times.children_system
    return own + live_descendants_cpu_s()


def _vm_hwm_mib(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_peak_rss_mib() -> float:
    """Peak resident memory of this process plus that of each live descendant.

    The sum of per-process peaks bounds the tree's simultaneous peak from above;
    call it while a pool is still alive, before its workers exit.
    """
    return _vm_hwm_mib(os.getpid()) + sum(_vm_hwm_mib(pid) for pid in descendants())


def _reap(pid: int) -> bool:
    """Whether ``pid`` has ended (reaping it if it is a child of this process)."""
    try:
        done, _ = os.waitpid(pid, os.WNOHANG)
        if done:
            return True
    except ChildProcessError:  # not our child: it is gone once /proc drops it
        pass
    fields = _stat_fields(pid)
    return fields is None or fields[0] == "Z" and int(fields[1]) != os.getpid()


def stop_descendants(grace_s: float = 5.0) -> list[int]:
    """Stop every process below this one and wait until each has ended.

    multiprocessing's resource tracker (started by the first shared-memory
    segment) outlives the interpreter by a moment unless its pipe is closed
    and it is waited for; it ignores SIGTERM, so it is stopped that way.
    Whatever is still alive afterwards gets SIGTERM, then SIGKILL after
    ``grace_s``.  Returns the pids that had to be signalled.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        try:
            stop()
        except Exception:  # fall through to the signals below
            pass
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None:
        for child in multiprocessing.active_children():
            child.join(grace_s)
    signalled = []
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pending = [pid for pid in descendants() if not _reap(pid)]
        if not pending:
            break
        for pid in pending:
            try:
                os.kill(pid, sig)
                signalled.append(pid)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while pending and time.monotonic() < deadline:
            pending = [pid for pid in pending if not _reap(pid)]
            time.sleep(0.02)
    return sorted(set(signalled))
