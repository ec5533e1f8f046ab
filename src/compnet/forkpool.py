"""Run independent jobs in forked worker processes, results in job order.

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


def _worker(parent: int, conn, fn: Callable, args: tuple) -> None:
    """Worker process: reply to each job received on ``conn``.

    Each reply is ``(fn(*args, *job), None)`` or ``(None, exception)``.
    ``fn`` and ``args`` arrive through fork, so they are never pickled.
    On Linux the kernel kills the worker when its parent dies, so a killed
    command leaves no worker blocked on ``conn``; a parent that died
    before that was set is caught by the ``getppid`` check.  Ctrl-C
    reaches the whole process group, and only the parent acts on it.
    """
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            job = conn.recv()
        except EOFError:  # the parent is gone
            return
        try:
            reply = (fn(*args, *job), None)
        except Exception as exc:  # the parent shows the worker's traceback too
            reply = (None, ExceptionWithTraceback(exc, exc.__traceback__))
        conn.send(reply)


def _in_order(workers: list, jobs: Sequence[tuple]) -> Iterator:
    """Yield the jobs' results in job order while ``workers`` compute them.

    Each idle worker gets the next job.  A job that failed, or whose
    worker died, stops the handing out, since every later job would be
    discarded, and raises once the jobs before it have been yielded.
    """
    waiting = list(enumerate(jobs))[::-1]  # the next job last
    running = {}  # connection -> index of its job
    finished: dict[int, tuple] = {}  # job index -> (result, exception)
    alive = {proc.sentinel: (proc, conn) for proc, conn in workers}

    def hand_out(conn) -> None:
        if waiting:
            index, job = waiting.pop()
            running[conn] = index
            # A worker that died meanwhile is reported by its sentinel.
            with contextlib.suppress(BrokenPipeError):
                conn.send(job)

    def finish(conn, reply: tuple) -> None:
        finished[running.pop(conn)] = reply
        if reply[1] is None:
            hand_out(conn)
        else:
            waiting.clear()

    for _, conn in workers:
        hand_out(conn)
    for index in range(len(jobs)):
        while index not in finished:
            ready = set(multiprocessing.connection.wait([*running, *alive]))
            for conn in [c for c in running if c in ready]:
                with contextlib.suppress(EOFError):  # died: see below
                    finish(conn, conn.recv())
            for sentinel in [s for s in alive if s in ready]:
                proc, conn = alive.pop(sentinel)
                proc.join()
                if conn in running:
                    finish(conn, (None, ChildProcessError(
                        f"the worker running job {jobs[running[conn]]!r} died "
                        f"(exit code {proc.exitcode})")))
        result, error = finished.pop(index)
        if error is not None:
            raise error
        yield result


@contextlib.contextmanager
def ordered_results(fn: Callable, args: tuple, jobs: Sequence[tuple], workers: int):
    """Yield an iterator over ``fn(*args, *job)`` for each job, in job order.

    With more than one worker and ``fork`` available, the jobs run in
    ``workers`` forked processes that exist only inside the ``with``
    block: however it ends, they are killed and reaped.  The first job in
    job order that fails raises its exception, and a worker that dies on
    its own fails its job with ``ChildProcessError``.  Otherwise the jobs
    run one after another in this process.  Only ``fork`` is used:
    ``spawn`` and ``forkserver`` start helper processes that outlive the
    workers, and would pickle ``args`` for every worker.
    """
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        yield (fn(*args, *job) for job in jobs)
        return
    context = multiprocessing.get_context("fork")
    started = []
    try:
        for _ in range(workers):
            conn, theirs = context.Pipe()
            with theirs:
                proc = context.Process(target=_worker, daemon=True,
                                       args=(os.getpid(), theirs, fn, args))
                proc.start()
            started.append((proc, conn))
        yield _in_order(started, jobs)
    finally:
        for proc, conn in started:
            proc.kill()
            proc.join()
            conn.close()
