"""Process hygiene: the benchmark leaves no process behind.

Two kinds of process can outlive a run.  ``multiprocessing`` starts a
resource tracker the first time the shm engine creates a shared-memory
segment; it exits only after it sees its pipe close, which may be after
the benchmark has exited.  ``repro serve`` forks workers (and may start
its own tracker); if the server dies first they are orphaned.

:func:`adopt_orphans` makes this process the child subreaper of its
descendants, so orphans are re-parented here instead of to init, and
:func:`stop_children` stops every child left at the end and waits for
each to end.
"""

from __future__ import annotations

import os
import signal
import time

#: prctl option: orphaned descendants are re-parented to the caller
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Become the child subreaper (Linux); False where that is unavailable."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def children(pid: int | None = None) -> list[int]:
    """Pids whose parent is ``pid`` (default: this process), from ``/proc``."""
    pid = os.getpid() if pid is None else pid
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name in parentheses may hold spaces; fields follow it
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def _reap(pid: int) -> bool:
    """Collect ``pid`` if it has ended; True once it is gone."""
    try:
        done, _ = os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return done == pid


def stop_tracker() -> None:
    """Stop this process's multiprocessing resource tracker, if it runs."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()  # closes its pipe and waits for it to exit


def stop_children(grace_s: float = 5.0) -> list[int]:
    """Stop and wait for every child; returns the pids that had to be stopped.

    The resource tracker is closed the way ``multiprocessing`` closes
    it.  Any other child gets SIGTERM, then SIGKILL after ``grace_s``.
    Orphans adopted meanwhile are handled the same way.
    """
    stop_tracker()
    stopped = []
    deadline = time.monotonic() + grace_s
    while True:
        pids = [p for p in children() if not _reap(p)]
        if not pids:
            return stopped
        sig = signal.SIGTERM if time.monotonic() < deadline else signal.SIGKILL
        for p in pids:
            if p not in stopped:
                stopped.append(p)
            try:
                os.kill(p, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.05)
