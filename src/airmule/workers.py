"""The fork pool: independent units of work, dealt round-robin so that
no worker holds more than the usable CPUs' average share.

solve_glns runs its restarts here.  The caller is worker 0; every other
worker is a forked child, which sees the caller's arrays copy-on-write.
Workers need not be importable or picklable, only their results.

Whole units cannot always split evenly over the CPUs: 3 units dealt to
2 workers leave one of them idle for the last third of the run.
worker_count starts more workers than CPUs where that evens the shares
(3 for those 3 units, at most 2 * CPUs - 1), and the OS shares the CPUs
among them, so every CPU stays busy until the last unit ends.  Units
that stop at a deadline, as GLNS restarts do, are then all cut short
together, where one worker per CPU would leave the units dealt last
unstarted; which units ran, and how far, depends on machine speed
either way.
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


def worker_count(units: int, cpus: int) -> int:
    """The fewest workers among which round-robin dealing gives none more
    than units / cpus units, or more than one where units <= cpus.

    That is one worker per unit up to cpus units, and otherwise
    ceil(units / floor(units / cpus)): 3 for 3 units on 2 CPUs, 2 for 4,
    and never more than 2 * cpus - 1.
    """
    if units <= cpus:
        return units
    share = units // cpus  # the most units any worker may hold
    return -(-units // share)


def in_workers(run: Callable[[range], list], indices: range) -> list:
    """run(share) over indices dealt round-robin to worker_count(len(indices),
    usable CPUs) workers; the concatenated results, in no particular order.

    Each share is a slice of indices, so a range is never expanded.
    This process is worker 0 and runs its share itself.  Every other
    worker is a forked child, which sends its results back pickled
    through a pipe and ends with os._exit, so it runs no cleanup and
    flushes no inherited buffer.  A share whose fork fails runs in this
    process, after its own share.  An exception in any worker is raised
    here once every child has ended; none is left running or unreaped.
    """
    workers = worker_count(len(indices), usable_cpus())
    own = [indices[::workers]]
    children: dict[int, BinaryIO] = {}  # pid -> read end of its pipe
    try:
        for w in range(1, workers):
            child = _fork(run, indices[w::workers])
            if child is None:
                own.append(indices[w::workers])
            else:
                children[child[0]] = child[1]
        results = [r for share in own for r in run(share)]
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


def _fork(run: Callable[[range], list],
          share: range) -> tuple[int, BinaryIO] | None:
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
