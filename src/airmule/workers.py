"""The fork pool: independent units of work on up to one process per
usable CPU.

solve_glns runs its restarts here and build_instance its source cells.
The caller is worker 0; every other worker is a forked child, which
sees the caller's arrays copy-on-write and its shared mappings as they
are.  Workers need not be importable or picklable, only their results.
"""

from __future__ import annotations

import os
import pickle
import signal
import warnings
from typing import BinaryIO, Callable


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the OS does not tell."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return 1


def in_workers(run: Callable[[list[int]], list], indices: list[int],
               cap: int | None = None) -> list:
    """run(share) over indices dealt round-robin to up to one worker per
    usable CPU, and to at most cap workers; the concatenated results, in
    no particular order.

    This process is worker 0 and runs its share itself.  Every other
    worker is a forked child, which sends its results back pickled
    through a pipe and ends with os._exit, so it runs no cleanup and
    flushes no inherited buffer.  A share whose fork fails runs in this
    process.  An exception in any worker is raised here once every child
    has ended; none is left running or unreaped.
    """
    workers = min(len(indices), usable_cpus())
    if cap is not None:
        workers = min(workers, cap)
    own = indices[::workers]
    children: dict[int, BinaryIO] = {}  # pid -> read end of its pipe
    try:
        for w in range(1, workers):
            child = _fork(run, indices[w::workers])
            if child is None:
                own = sorted(own + indices[w::workers])
            else:
                children[child[0]] = child[1]
        results = run(own)
        failure: BaseException | None = None
        for pid, pipe in list(children.items()):
            reply = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            pipe.close()
            ok, value = pickle.loads(reply) if reply else (False, RuntimeError(
                f"worker ended with wait status {status} and no reply"))
            if ok:
                results += value
            elif failure is None:
                failure = value
        if failure is not None:
            raise failure
        return results
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(run: Callable[[list[int]], list],
          share: list[int]) -> tuple[int, BinaryIO] | None:
    """Fork a worker that runs share: (pid, read end of its pipe), or
    None when the pipe or the fork fails."""
    try:
        rfd, wfd = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on every fork of a process with more than
            # one thread; numpy's BLAS pool counts, is fork-safe and is not
            # used by any worker.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return None
    if pid:
        os.close(wfd)
        return pid, os.fdopen(rfd, "rb")
    try:  # the worker; it never returns
        os.close(rfd)
        try:
            reply = (True, run(share))
        except BaseException as exc:
            reply = (False, exc)
        try:
            data = pickle.dumps(reply)
        except Exception:
            data = pickle.dumps((False, RuntimeError(repr(reply[1]))))
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)
