"""Run independent jobs in forked child processes, results in job order.

Only ``compnet compare`` needs this, and ``cli`` imports it only there:
``multiprocessing`` adds about 17 ms to the start of every other command.
"""

from __future__ import annotations

import contextlib
import ctypes
import multiprocessing
import multiprocessing.connection
import os
import signal
import sys
from multiprocessing.pool import ExceptionWithTraceback
from typing import Callable, Iterator, Sequence

_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _child(parent: int, conn, fn: Callable, job: tuple) -> None:
    """Child process: send ``conn`` its one reply, then exit.

    The reply is ``(fn(*job), None)`` or ``(None, exception)``.  ``fn``
    and ``job`` arrive through fork, so they are never pickled.  On Linux
    the kernel kills the child when its parent dies, so a killed command
    leaves no child running; a parent that died before that was set is
    caught by the ``getppid`` check.  Ctrl-C reaches the whole process
    group, and only the parent acts on it.
    """
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        reply = (fn(*job), None)
    except Exception as exc:  # the parent shows the child's traceback too
        reply = (None, ExceptionWithTraceback(exc, exc.__traceback__))
    conn.send(reply)


def _in_order(context, fn: Callable, jobs: Sequence[tuple], workers: int,
              running: dict) -> Iterator:
    """Yield the jobs' results in job order, at most ``workers`` at once.

    ``running`` maps each live child's pipe to its job index and process.
    A job that failed, or whose child died, stops the starting of jobs,
    since every later job would be discarded, and raises once the jobs
    before it have been yielded.
    """
    waiting = list(enumerate(jobs))[::-1]  # the next job last
    finished: dict[int, tuple] = {}  # job index -> (result, exception)
    for index in range(len(jobs)):
        while True:  # keep the children busy while the caller handles results
            while waiting and len(running) < workers:
                started, job = waiting.pop()
                conn, theirs = context.Pipe(duplex=False)
                with theirs:  # only the child keeps its end, so EOF means it died
                    proc = context.Process(target=_child, daemon=True,
                                           args=(os.getpid(), theirs, fn, job))
                    proc.start()
                running[conn] = started, proc
            if index in finished:
                break
            for conn in multiprocessing.connection.wait(list(running)):
                done, proc = running[conn]
                with contextlib.suppress(EOFError):  # EOF: the child died
                    finished[done] = conn.recv()
                proc.join()
                del running[conn]
                conn.close()
                finished.setdefault(done, (None, ChildProcessError(
                    f"the child running job {jobs[done]!r} died (exit code {proc.exitcode})")))
                if finished[done][1] is not None:
                    waiting.clear()
        result, error = finished.pop(index)
        if error is not None:
            raise error
        yield result


@contextlib.contextmanager
def ordered_results(fn: Callable, jobs: Sequence[tuple], workers: int):
    """Yield an iterator over ``fn(*job)`` for each job, in job order.

    With more than one worker and ``fork`` available, each job runs in its
    own forked child, at most ``workers`` at once, and children exist only
    inside the ``with`` block: however it ends, the live ones are killed
    and reaped.  The first job in job order that fails raises its
    exception; a child that dies fails its job with ``ChildProcessError``.
    Otherwise the jobs run one after another in this process.  Only
    ``fork`` is used: ``spawn`` and ``forkserver`` start helpers that
    outlive the children, and would pickle ``fn`` and every job.
    """
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        yield (fn(*job) for job in jobs)
        return
    running: dict = {}
    try:
        yield _in_order(multiprocessing.get_context("fork"), fn, jobs, workers, running)
    finally:
        for conn, (_, proc) in running.items():
            proc.kill()
            proc.join()
            conn.close()
