"""Run independent shares of work in forked children.

run_shares(fn, shares) returns [fn(s) for s in shares]: the caller runs
shares[0] and each other share runs in an os.fork() child that pickles
fn(share) down a pipe.  The children inherit the caller's memory, so the
data they read is built once, before the fork, and is never pickled.  The
same arithmetic runs in whichever process runs a share, so the results do
not depend on how many processes ran them.

usable_cpus() is the one rule for whether forking is allowed at all: the
CPUs this process may run on, or 1 off Linux, without os.fork, or while a
second thread is alive (forking a threaded process can deadlock the child).
"""

from __future__ import annotations

import os
import pickle
import sys
import threading


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


def _fork_share(fn, share) -> tuple[int, int]:
    """Run fn(share) in a forked child that pickles its result down a pipe;
    returns (pid, read end).  The child leaves through os._exit, so no
    inherited atexit handler or stdio buffer runs twice."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(fn(share), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _collect(pid: int, read_fd: int):
    """A forked share's result: read its pipe to the end and wait for the
    child.  A child that exits non-zero or sends a short payload raises
    RuntimeError."""
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            payload = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"forked worker {pid} exited with status {code}")
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise RuntimeError(
            f"forked worker {pid} exited with status {code} but sent a "
            f"short payload of {len(payload)} bytes"
        ) from exc


def run_shares(fn, shares) -> list:
    """[fn(s) for s in shares], in shares order: shares[0] runs in the
    caller and each other share in a forked child, so fn's result must
    pickle.  Every child is waited for before this returns or raises.  A
    child that fails raises RuntimeError; its share is not rerun."""
    shares = list(shares)
    children = {}  # pid -> read end of its pipe
    try:
        for share in shares[1:]:
            pid, read_fd = _fork_share(fn, share)
            children[pid] = read_fd
        results = [fn(share) for share in shares[:1]]
        for pid in list(children):
            results.append(_collect(pid, children.pop(pid)))
    finally:
        # close every read end before waiting: a child inherits the read ends
        # forked before it, so a pipe breaks only once all are closed
        for read_fd in children.values():
            os.close(read_fd)
        for pid in children:
            os.waitpid(pid, 0)
    return results
