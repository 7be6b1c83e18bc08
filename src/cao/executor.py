"""The process model: tasks run by the caller and forked children at one OpenBLAS thread.

``run_all`` is the one entry point, and ``usable_cpus`` the CLI's default ``--jobs``.
"""

from __future__ import annotations

import ctypes
import logging
import os
import pickle
import tempfile
from contextlib import contextmanager
from functools import cache
from logging.handlers import BufferingHandler

import numpy as np

from .errors import ConfigError, WorkerError

log = logging.getLogger(__name__)


def usable_cpus() -> int:
    """The CPUs this process may run on (``os.cpu_count()`` where that is unknown)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1


def pool_size(jobs: int, n_tasks: int) -> int:
    """Processes, the caller included, for ``n_tasks`` independent runs at ``jobs``.

    ``jobs`` must be an integer >= 1. There are never more processes than
    tasks, and only the caller where the platform cannot fork; at 1 nothing
    is forked.
    """
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise ConfigError(f"jobs must be an integer >= 1, got {jobs!r}")
    return min(jobs, n_tasks) if hasattr(os, "fork") else 1


@contextmanager
def _capturing():
    """Inside the block ``cao.*`` records go to the yielded handler's ``buffer``, not up."""
    cao_log = logging.getLogger(__package__)
    saved = cao_log.handlers, cao_log.propagate
    handler = BufferingHandler(float("inf"))  # never flushed: the caller re-emits the records
    cao_log.handlers, cao_log.propagate = [handler], False
    try:
        yield handler
    finally:
        cao_log.handlers, cao_log.propagate = saved


@cache
def _openblas_threads():
    """The loaded OpenBLAS's (get, set) thread-count functions, or None if none is found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and "/" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get, put = (getattr(handle, f"{prefix}_{op}_num_threads{suffix}", None)
                        for op in ("get", "set"))
            if get and put:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """OpenBLAS at one thread inside the block, restored after; a warning where it cannot be set."""
    blas = _openblas_threads()
    if blas is None:
        log.warning("no OpenBLAS thread count to set: the runs use the BLAS's own"
                    " threads, and their outputs may depend on how many it uses")
    before = blas[0]() if blas else 1
    if before != 1:
        blas[1](1)
    try:
        yield
    finally:
        if before != 1:
            blas[1](before)


def _claim(execute, queue: int) -> list:
    """Run the tasks this process claims from the ``queue`` file until none is left.

    The queue holds 4-byte task indices, and every process reads it through
    one shared offset, so each read claims the next index. Returns one
    (index, failed, result or exception, cao.* records) per claimed task. A
    failure seeks the queue to its end, which cancels every claim not yet
    made, in every process. Its exception, ``KeyboardInterrupt`` included,
    is kept as the outcome, for ``run_all`` to raise in task order.
    """
    outcomes = []
    with _capturing() as handler:
        while len(claim := os.read(queue, 4)) == 4:
            i = int.from_bytes(claim, "little")
            handler.buffer = []
            try:
                outcomes.append((i, False, execute(i), handler.buffer))
            except BaseException as exc:
                os.lseek(queue, 0, os.SEEK_END)
                outcomes.append((i, True, exc, handler.buffer))
                break
    return outcomes


def _child(execute, queue: int, pipe: int):
    """A forked child: claim tasks, write the pickled outcomes to ``pipe``, exit.

    It never returns; the exit status is 0 only once every outcome is
    written. An exception that does not survive pickling is sent as a
    ``WorkerError`` naming it.
    """
    status = 1
    try:
        outcomes = _claim(execute, queue)
        if outcomes and outcomes[-1][1]:  # only the last claim can have failed
            i, _, exc, records = outcomes[-1]
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception as why:
                outcomes[-1] = (i, True, WorkerError(
                    f"task {i} raised {type(exc).__name__}: {exc}, which cannot be sent"
                    f" from its worker process ({type(why).__name__}: {why})"), records)
        with open(pipe, "wb") as fh:
            fh.write(pickle.dumps(outcomes))
        status = 0
    finally:
        os._exit(status)


def _reap(children) -> tuple[list, list]:
    """Every child's outcomes and the exits of those that sent none.

    ``children`` holds (pid, pipe read end) pairs. Each pipe is read to its
    end and closed and each child waited for, even if this is interrupted.
    """
    outcomes, dead, waited = [], [], 0
    try:
        for pid, r in children:
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            waited += 1
            if code == 0:
                outcomes += pickle.loads(data)
            else:
                dead.append(f"worker process {pid} "
                            + (f"was killed by signal {-code}" if code < 0
                               else f"exited with status {code}"))
    finally:
        for _, r in children:
            os.close(r)  # a child still writing gets a broken pipe and exits
        for pid, _ in children[waited:]:
            os.waitpid(pid, 0)
    return outcomes, dead


def run_all(execute, n_tasks: int, jobs: int) -> list:
    """``execute(i)`` for every task index i, results in task order.

    The caller forks ``pool_size - 1`` children, none at one process, and
    every process, the caller too, claims task indices from one shared queue
    until it is empty; OpenBLAS runs at one thread meanwhile, so the results
    do not depend on ``jobs``. The children inherit what ``execute`` closes
    over, and pickle back its results. Each run's ``cao.*`` log records are
    re-emitted by the caller in task order once every run is done.
    If a task raises, no task starts after it, the running ones finish, and
    the first failure in task order is raised, after the records of the
    tasks before it and its own. A child that dies gives a ``WorkerError``
    with its exit status and the tasks left without a result. No child is
    left when this returns or raises.
    """
    processes = pool_size(jobs, n_tasks)
    with _one_blas_thread(), tempfile.TemporaryFile() as queue_file:
        queue_file.write(np.arange(n_tasks, dtype="<u4").tobytes())
        queue_file.seek(0)
        queue = queue_file.fileno()
        children = []
        try:
            for _ in range(processes - 1):
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(r)
                    os.close(w)
                    raise
                if pid == 0:  # with no read end kept, writing to a pipe the caller
                    # closed fails at once instead of blocking
                    for fd in (r, *(earlier for _, earlier in children)):
                        os.close(fd)
                    _child(execute, queue, w)
                os.close(w)
                children.append((pid, r))
            outcomes = _claim(execute, queue)
        finally:
            os.lseek(queue, 0, os.SEEK_END)  # no run starts after a failure or Ctrl-C
            theirs, dead = _reap(children)
    done = {i: outcome for i, *outcome in outcomes + theirs}
    results = []
    for i in range(n_tasks):
        if i not in done:
            missing = ", ".join(str(j) for j in range(i, n_tasks) if j not in done)
            raise WorkerError(f"{'; '.join(dead)}; tasks without a result: {missing}")
        failed, value, records = done[i]
        for rec in records:
            logging.getLogger(rec.name).handle(rec)
        if failed:
            raise value
        results.append(value)
    return results
