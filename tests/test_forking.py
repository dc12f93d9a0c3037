"""Shares of work run in persistent forked workers."""

import fcntl
import os
import pickle
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wg_hp.forking as forking
import wg_hp.verify as verify
from wg_hp.forking import run_shares

pytestmark = pytest.mark.skipif(
    not (sys.platform.startswith("linux") and hasattr(os, "fork")),
    reason="run_shares forks on Linux only",
)

SRC = Path(__file__).resolve().parents[1] / "src"


# run_shares pickles fn by reference, so the tasks are module-level functions
def _pid_and_doubled(share):
    return os.getpid(), [2 * s for s in share]


def _unpicklable(share):
    return lambda: share


def _pid(share):
    return os.getpid()


def _pid_and_parent(share):
    return os.getpid(), os.getppid()


def _pid_and_case_nquad(share):
    return os.getpid(), verify.case_nquad(share, True)


def _pid_or_exit(share):
    if share is not None:
        os._exit(share)
    return os.getpid()


def _echo_or_raise(share):
    if share == "raise":
        raise ValueError(share)
    return share


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made while the test runs."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(True)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def _gone(pid: int) -> bool:
    """pid has exited: it no longer exists, or is a zombie nobody reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


def _wait_gone(pid: int, seconds: float = 5.0) -> bool:
    deadline = time.monotonic() + seconds
    while not _gone(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def test_run_shares_returns_every_share_in_order_and_runs_the_first_here():
    parent = os.getpid()
    results = run_shares(_pid_and_doubled, [[1], [2, 3], [4]])
    assert [out for _, out in results] == [[2], [4, 6], [8]]
    pids = [pid for pid, _ in results]
    assert pids[0] == parent and parent not in pids[1:] and len(set(pids)) == 3
    assert run_shares(len, []) == []
    forking.shutdown()
    _no_child_left()


def test_a_result_that_does_not_pickle_raises():
    with pytest.raises(RuntimeError, match="exited with status 1$"):
        run_shares(_unpicklable, [0, 1])
    _no_child_left()


def test_a_second_call_forks_nothing_and_reuses_the_worker(forks):
    first = run_shares(_pid, [0, 1])
    assert len(forks) == 1
    second = run_shares(_pid, [0, 1])
    assert len(forks) == 1 and second == first
    # a call that needs more workers keeps the first and forks one more
    third = run_shares(_pid, [0, 1, 2])
    assert len(forks) == 2 and third[1] == first[1] and third[2] not in first
    forking.shutdown()
    _no_child_left()
    forking.shutdown()  # a second shutdown has nothing to stop


def test_a_patched_wg_hp_attribute_forks_a_fresh_worker_that_runs_it(forks, monkeypatch):
    (_, (worker, nquad)) = run_shares(_pid_and_case_nquad, [4, 4])
    assert nquad == verify.case_nquad(4, True) and len(forks) == 1
    monkeypatch.setattr(verify, "case_nquad", lambda p, quad_double=False: "patched")
    (_, (fresh, patched)) = run_shares(_pid_and_case_nquad, [4, 4])
    assert len(forks) == 2 and fresh != worker and patched == "patched"
    with pytest.raises(ChildProcessError):  # the old worker was reaped
        os.waitpid(worker, os.WNOHANG)


def test_a_dead_worker_raises_and_the_next_call_forks_a_fresh_one():
    (_, worker) = run_shares(_pid_or_exit, [None, None])
    with pytest.raises(RuntimeError, match="exited with status 3$"):
        run_shares(_pid_or_exit, [None, 3])
    _no_child_left()
    (_, fresh) = run_shares(_pid_or_exit, [None, None])
    assert fresh != worker


def test_a_worker_killed_between_calls_is_replaced(forks):
    (_, worker) = run_shares(_pid, [0, 1])
    os.kill(worker, signal.SIGKILL)
    assert _wait_gone(worker)
    (_, fresh) = run_shares(_pid, [0, 1])
    assert fresh != worker and len(forks) == 2


def test_a_forked_child_of_the_caller_forks_its_own_workers():
    (_, (worker, parent)) = run_shares(_pid_and_parent, [0, 1])
    assert parent == os.getpid()
    read_fd, write_fd = os.pipe()
    child = os.fork()
    if child == 0:
        try:
            os.close(read_fd)
            got = run_shares(_pid_and_parent, [0, 1])[1]
            forking.shutdown()
            os.write(write_fd, pickle.dumps(got))
        finally:
            os._exit(0)
    os.close(write_fd)
    ready, _, _ = select.select([read_fd], [], [], 30.0)
    if not ready:
        os.kill(child, signal.SIGKILL)
    got = pickle.loads(os.read(read_fd, 4096)) if ready else None
    os.close(read_fd)
    os.waitpid(child, 0)
    assert got is not None and got[0] != worker and got[1] == child
    # the caller's own worker still serves it
    assert run_shares(_pid_and_parent, [0, 1])[1] == (worker, os.getpid())


def test_a_pipe_the_caller_opened_reaches_eof_when_the_caller_closes_it():
    read_fd, write_fd = os.pipe()
    # a second write end numbered above the worker's own pipe ends
    high_fd = fcntl.fcntl(write_fd, fcntl.F_DUPFD_CLOEXEC, 100)
    try:
        run_shares(_pid, [0, 1])  # the worker is forked while every end is open
        os.close(write_fd)
        os.close(high_fd)
        ready, _, _ = select.select([read_fd], [], [], 5.0)
        assert ready and os.read(read_fd, 1) == b""
    finally:
        os.close(read_fd)


def test_a_call_that_fails_in_the_caller_leaves_no_stale_result():
    # the worker's result of the failed call is never read, so the pool goes
    with pytest.raises(ValueError):
        run_shares(_echo_or_raise, ["raise", "stale"])
    _no_child_left()
    assert run_shares(_echo_or_raise, ["caller", "fresh"]) == ["caller", "fresh"]


def _run_python(script: str, *args) -> subprocess.CompletedProcess:
    """script run in a fresh interpreter with block-buffered stdout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env=env, timeout=60, check=False)


CALLER = """
import atexit, os, signal, sys

def reaped():  # registered before wg_hp's own handler, so it runs after it
    try:
        os.waitpid(worker, os.WNOHANG)
        print("alive", flush=True)
    except ChildProcessError:
        print("reaped", flush=True)

atexit.register(reaped)
from wg_hp.forking import run_shares

def pid(share):
    return os.getpid()

worker = run_shares(pid, [0, 1])[1]
print(worker, flush=True)
if sys.argv[1] == "raise":
    raise RuntimeError("the caller fails")
if sys.argv[1] == "kill":
    os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.mark.parametrize("how, code, last", [("return", 0, "reaped"), ("raise", 1, "reaped"),
                                             ("kill", -9, None)])
def test_no_worker_outlives_a_caller_that_exits_without_shutdown(how, code, last):
    # a caller that exits reaps its worker at exit; one that is killed
    # leaves it to exit at end of file on its task pipe
    proc = _run_python(CALLER, how)
    assert proc.returncode == code, proc.stderr
    worker, *rest = proc.stdout.split()
    assert rest == ([last] if last else [])
    assert _wait_gone(int(worker))


SHOUT = """
import os
from wg_hp.forking import run_shares

def shout(share):
    print(share, flush=True)

print("before")  # still in the buffer: stdout is a pipe
run_shares(shout, ["caller", "worker"])
"""


def test_a_worker_does_not_repeat_output_the_caller_has_not_flushed():
    proc = _run_python(SHOUT)
    assert proc.returncode == 0, proc.stderr
    assert sorted(proc.stdout.split()) == ["before", "caller", "worker"]
