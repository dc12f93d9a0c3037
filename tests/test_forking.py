"""Shares of work run in forked children."""

import os
import sys

import pytest

from wg_hp.forking import run_shares

pytestmark = pytest.mark.skipif(
    not (sys.platform.startswith("linux") and hasattr(os, "fork")),
    reason="run_shares forks on Linux only",
)


def test_run_shares_returns_every_share_in_order_and_runs_the_first_here():
    parent = os.getpid()
    results = run_shares(lambda share: (os.getpid(), [2 * s for s in share]), [[1], [2, 3], [4]])
    assert [out for _, out in results] == [[2], [4, 6], [8]]
    pids = [pid for pid, _ in results]
    assert pids[0] == parent and parent not in pids[1:] and len(set(pids)) == 3
    assert run_shares(len, []) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_result_that_does_not_pickle_raises():
    def unpicklable(share):
        return lambda: share

    with pytest.raises(RuntimeError, match="exited with status 1$"):
        run_shares(unpicklable, [0, 1])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
