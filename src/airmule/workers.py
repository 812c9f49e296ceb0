"""Forked processes for the GLNS search: a pool of workers for its
independent restarts, and a helper that works beside one restart.

solve_glns runs its restarts in the pool (in_workers), dealt round-robin
so that no worker holds more than the usable CPUs' average share.  The
caller is worker 0; every other worker is a forked child, which sees the
caller's arrays copy-on-write.  Workers need not be importable or
picklable, only their results.

Whole units cannot always split evenly over the CPUs: 3 units dealt to
2 workers leave one of them idle for the last third of the run.
worker_count starts more workers than CPUs where that evens the shares
(3 for those 3 units, at most 2 * CPUs - 1), and the OS shares the CPUs
among them, so every CPU stays busy until the last unit ends.  Units
that stop at a deadline, as GLNS restarts do, are then all cut short
together, where one worker per CPU would leave the units dealt last
unstarted; which units ran, and how far, depends on machine speed
either way.

When the usable CPUs number at least twice the restarts, solve_glns also
forks one helper for each restart (helper), joined to the process that
runs the restart by a Link: two pipes that carry pickled messages both
ways.  The two share the restart's annealing iterations
(solver._Annealing); a helper forks no process of its own, and is killed
and reaped when its restart's iterations end.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import select
import signal
import struct
import warnings
from typing import BinaryIO, Callable, Iterator

# The length of the pickled message that follows, ahead of each message on
# a Link.
_HEADER = struct.Struct("<Q")


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


class Link:
    """One end of a two-way channel between two processes: whole messages,
    pickled, received in the order they were sent.  An exception that the
    other end sends with fail is raised by recv.

    send never waits: what the pipe cannot take yet is kept here and
    written as the other end reads, while this end checks for or waits on
    a message of its own.  So two ends that both send while neither reads
    cannot block each other."""

    def __init__(self, rfd: int, wfd: int) -> None:
        self._rfd = rfd
        self._wfd = wfd
        self._out = bytearray()
        os.set_blocking(wfd, False)

    def send(self, message: object) -> None:
        data = _reply(True, message)
        self._out += _HEADER.pack(len(data)) + data
        self._flush()

    def fail(self, exc: BaseException) -> None:
        """Send exc for the other end to raise, waiting until it is all
        written."""
        data = _reply(False, exc)
        self._out += _HEADER.pack(len(data)) + data
        os.set_blocking(self._wfd, True)
        self._flush()

    def ready(self) -> bool:
        """Whether a message, or the end of the other's writes, waits."""
        self._flush()
        return bool(select.select([self._rfd], [], [], 0)[0])

    def recv(self) -> object:
        """The next message, waiting for it; RuntimeError when the other
        end closed the channel first."""
        size, = _HEADER.unpack(self._read(_HEADER.size))
        ok, value = pickle.loads(self._read(size))
        if not ok:
            raise value
        return value

    def drain(self) -> None:
        """Finish writing what is kept to send, then read and drop messages
        until the other end closes the channel."""
        os.set_blocking(self._wfd, True)
        self._flush()
        while os.read(self._rfd, 1 << 16):
            pass

    def close(self) -> None:
        os.close(self._rfd)
        os.close(self._wfd)

    def _flush(self) -> None:
        try:
            while self._out:
                del self._out[:os.write(self._wfd, self._out)]
        except BlockingIOError:
            pass

    def _read(self, size: int) -> bytes:
        """size bytes read, writing what is kept to send while they come."""
        data = b""
        while len(data) < size:
            self._flush()
            if self._out and not select.select(
                    [self._rfd], [self._wfd], [])[0]:
                continue
            chunk = os.read(self._rfd, size - len(data))
            if not chunk:
                raise RuntimeError("the process at the other end of the link ended")
            data += chunk
        return data


@contextlib.contextmanager
def helper(run: Callable[[Link], object]) -> Iterator[Link | None]:
    """Fork a helper that runs run(link) at one end of a Link and yield
    the other end, or None when a pipe or the fork fails, for this process
    to work alone.

    The helper ends with os._exit, as a worker does; an exception in it is
    sent through the link, for recv here to raise.  Leaving the block kills
    and reaps the helper, finished or not, so none is left running or
    unreaped.
    """
    forked = _fork_helper(run)
    if forked is None:
        yield None
        return
    pid, link = forked
    try:
        yield link
    finally:
        link.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _fork_helper(run: Callable[[Link], object]) -> tuple[int, Link] | None:
    """Fork a helper that runs run: (pid, this process's end of its
    link), or None when a pipe or the fork fails."""
    try:
        down = os.pipe()  # this process -> the helper
    except OSError:
        return None
    try:
        up = os.pipe()  # the helper -> this process
    except OSError:
        os.close(down[0])
        os.close(down[1])
        return None
    ours, theirs = Link(up[0], down[1]), Link(down[0], up[1])

    def child() -> None:
        ours.close()
        try:
            run(theirs)
            # Ending here would read as a failure at the other end.
            theirs.drain()
        except BaseException as exc:  # ends the helper; raised in its caller
            theirs.fail(exc)

    pid = _spawn(child)
    theirs.close()
    if pid is None:
        ours.close()
        return None
    return pid, ours


def _fork(run: Callable[[range], list],
          share: range) -> tuple[int, BinaryIO] | None:
    """Fork a worker that runs share: (pid, read end of its pipe), or
    None when the pipe or the fork fails."""
    try:
        rfd, wfd = os.pipe()
    except OSError:
        return None

    def child() -> None:
        os.close(rfd)
        try:
            reply = _reply(True, run(share))
        except BaseException as exc:  # ends the worker; raised in its caller
            reply = _reply(False, exc)
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(reply)

    pid = _spawn(child)
    os.close(wfd)
    if pid is None:
        os.close(rfd)
        return None
    return pid, os.fdopen(rfd, "rb")


def _reply(ok: bool, value: object) -> bytes:
    """(ok, value) pickled: a result or message when ok, else the exception
    to raise at the other end, as a RuntimeError of its repr when value
    does not pickle."""
    try:
        return pickle.dumps((ok, value))
    except Exception:
        return pickle.dumps((False, RuntimeError(repr(value))))


def _spawn(child: Callable[[], None]) -> int | None:
    """Fork a process that runs child() and ends with os._exit, so that it
    runs no cleanup and flushes no inherited buffer: its pid here, or None
    when the fork fails."""
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on every fork of a process with more than
            # one thread; numpy's BLAS pool counts, is fork-safe and is not
            # used by any forked process.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        return None
    if pid:
        return pid
    try:
        child()
    finally:
        os._exit(0)
