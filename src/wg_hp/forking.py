"""Run independent shares of work in forked worker processes that persist.

run_shares(fn, shares) returns [fn(s) for s in shares]: the caller runs
shares[0] and sends each other share, pickled with fn, down a pipe to one
worker process, which sends the pickled result back.  The workers are
forked on the first call that needs them and serve every later call, so a
warm caller pays for no fork.  A worker is a fork of the caller, so it
holds the caller's code and data as they were at the fork; it serves a
call only while the caller is the process that forked it and every
attribute of every loaded wg_hp module is still bound to the object it
held then.  Otherwise, or after any worker fails, the pool is shut down
and forked again, so a call's results are those of a child forked for it.
The same arithmetic runs in whichever process runs a share, so the results
do not depend on how many processes ran them.

Workers exit on shutdown(), at interpreter exit, and when their task pipe
reaches end of file because the caller died.  A worker keeps open only
stdio and its own two pipe ends.

usable_cpus() is the one rule for whether forking is allowed at all: the
CPUs this process may run on, or 1 off Linux, without os.fork, or while a
second thread is alive (forking a threaded process can deadlock the child).
"""

from __future__ import annotations

import atexit
import operator
import os
import pickle
import struct
import sys
import threading

_LENGTH = struct.Struct("<Q")  # every message is its length, then its bytes


class _Pool:
    """The live workers, as (pid, task write end, result read end), the
    process that forked them, and the wg_hp bindings at the fork.  One
    instance, never rebound, so a call does not change the bindings it
    compares."""

    def __init__(self):
        self.workers: list[tuple[int, int, int]] = []
        self.owner: int | None = None
        self.bindings: list = []


_pool = _Pool()


def usable_cpus() -> int:
    """The number of CPUs this process may run on; 1, so that no caller
    forks, off Linux, without os.fork, or while a second thread is alive."""
    if (
        not sys.platform.startswith("linux")
        or not hasattr(os, "fork")
        or threading.active_count() > 1
    ):
        return 1
    return len(os.sched_getaffinity(0))


def _bindings() -> list:
    """(module, names, values) of every loaded wg_hp module."""
    out = []
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "wg_hp" or name.startswith("wg_hp.")):
            namespace = vars(module)
            out.append((module, tuple(namespace), tuple(namespace.values())))
    return out


def _same_bindings(old: list, new: list) -> bool:
    """Whether every module, name and value of old is the same object in new."""
    return len(old) == len(new) and all(
        module is new_module and names == new_names and all(map(operator.is_, values, new_values))
        for (module, names, values), (new_module, new_names, new_values) in zip(old, new)
    )


def _send(fd: int, payload: bytes) -> None:
    view = memoryview(_LENGTH.pack(len(payload)) + payload)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, size: int) -> bytes | None:
    """Exactly size bytes from fd, or None at end of file."""
    chunks = []
    while size:
        chunk = os.read(fd, min(size, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _receive(fd: int) -> bytes | None:
    """One message from fd, or None if the pipe ends first."""
    head = _read(fd, _LENGTH.size)
    return None if head is None else _read(fd, _LENGTH.unpack(head)[0])


def _serve(tasks: int, results: int):
    """A worker's life: run each (fn, share) task that arrives on tasks and
    send back fn(share), until tasks reaches end of file.  It leaves
    through os._exit, status 0 at end of file and 1 on any error, so no
    inherited atexit handler or stdio buffer runs twice."""
    status = 1
    try:
        keep = 3
        for fd in sorted((tasks, results)):
            if fd >= keep:
                os.closerange(keep, fd)
                keep = fd + 1
        os.closerange(keep, os.sysconf("SC_OPEN_MAX"))
        _pool.workers.clear()  # the caller's workers are not this process's
        while (task := _receive(tasks)) is not None:
            fn, share = pickle.loads(task)
            _send(results, pickle.dumps(fn(share), pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _fork_worker() -> tuple[int, int, int]:
    task_r, task_w = os.pipe()
    result_r, result_w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in (task_r, task_w, result_r, result_w):
            os.close(fd)
        raise
    if pid == 0:
        _serve(task_r, result_w)
    os.close(task_r)
    os.close(result_w)
    return pid, task_w, result_r


def shutdown() -> dict:
    """Stop every worker and return {pid: exit code}: close every pipe end
    of the pool first, so a worker waiting for a task exits at end of file
    and one blocked writing a result fails, then reap each worker, so no
    wait blocks.  Workers forked by another process are forgotten, not
    touched.  The next call that needs workers forks new ones.  Runs at
    interpreter exit."""
    workers, owned = _pool.workers[:], _pool.owner == os.getpid()
    _pool.workers.clear()
    if not owned:
        return {}
    for _, task_w, result_r in workers:
        os.close(task_w)
        os.close(result_r)
    codes = {}
    for pid, _, _ in workers:
        try:
            _, status = os.waitpid(pid, 0)
        except ChildProcessError:  # reaped when found dead between calls
            continue
        codes[pid] = os.waitstatus_to_exitcode(status)
    return codes


atexit.register(shutdown)


def _workers(k: int) -> list:
    """k workers that hold what a fresh fork would: the pool's if it
    qualifies, else a new pool; extra workers are forked as needed."""
    bindings = _bindings()
    if _pool.workers and not (
        _pool.owner == os.getpid()
        and _same_bindings(_pool.bindings, bindings)
        and all(os.waitpid(pid, os.WNOHANG)[0] == 0 for pid, _, _ in _pool.workers)  # none has exited
    ):
        shutdown()
    if len(_pool.workers) < k:
        if not _pool.workers:
            _pool.owner, _pool.bindings = os.getpid(), bindings
        for stream in (sys.stdout, sys.stderr):  # a worker must not inherit unwritten output
            if stream is not None:
                stream.flush()
        while len(_pool.workers) < k:
            _pool.workers.append(_fork_worker())
    return _pool.workers[:k]


def run_shares(fn, shares) -> list:
    """[fn(s) for s in shares], in shares order: shares[0] runs in the
    caller and each other share in a persistent forked worker, so fn and
    every share but the first must pickle (fn by reference: a module-level
    function or a functools.partial of one), and so must fn's results.  A
    worker that fails raises RuntimeError and its share is not rerun; any
    failure of the call shuts the pool down before it raises."""
    shares = list(shares)
    tasks = [pickle.dumps((fn, share), pickle.HIGHEST_PROTOCOL) for share in shares[1:]]
    if not tasks:
        return [fn(share) for share in shares]
    workers = _workers(len(tasks))
    try:
        for (_, task_w, _), task in zip(workers, tasks):
            _send(task_w, task)
        results = [fn(shares[0])]
        for pid, _, result_r in workers:
            payload = _receive(result_r)
            if payload is None:
                code = shutdown().get(pid)
                raise RuntimeError(f"forked worker {pid} exited with status {code}")
            results.append(pickle.loads(payload))
    except BaseException:
        shutdown()
        raise
    return results
