import threading

import numpy as np

from sparsebrdf import parallel


def test_every_worker_keeps_the_callers_errstate(monkeypatch):
    # numpy's errstate is a context variable, which a pool thread would not
    # see unless its piece runs in a copy of the caller's context
    monkeypatch.setattr(parallel, "_WORKERS", 3)
    seen = {}

    def task(i, start, stop):
        seen[i] = (np.geterr(), threading.get_ident())

    cuts = parallel._cuts(30, 8, 3)
    with np.errstate(over="ignore", divide="raise", invalid="warn", under="call"):
        want = np.geterr()
        with parallel._pool(len(cuts) - 1) as pool:
            parallel._run(pool, task, cuts)
    assert want != np.geterr()
    assert sorted(seen) == [0, 1, 2]
    assert all(state == want for state, _ in seen.values()), seen
    # the first piece runs on the caller, the others on the pool
    assert seen[0][1] == threading.get_ident()
    assert threading.get_ident() not in (seen[1][1], seen[2][1])


def test_row_blocks_return_each_blocks_result_in_block_order(monkeypatch):
    # 23 rows in blocks of 5 leave a ragged last block of 3; each worker
    # takes a run of blocks, but the results come back in block order
    monkeypatch.setattr(parallel, "_REFERENCE_BLOCK", 5)
    want = [(0, 5), (5, 10), (10, 15), (15, 20), (20, 23)]
    for workers in (1, 2, 3):
        monkeypatch.setattr(parallel, "_WORKERS", workers)
        threads = set()

        def task(_, start, stop):
            threads.add(threading.get_ident())
            return start, stop

        assert parallel._row_blocks(23, task) == want, workers
        assert threading.get_ident() in threads and (len(threads) > 1) == (workers > 1)

    # rows of one block are worked on by the calling thread alone
    def no_pool(*_):
        raise AssertionError("a one-block call started a pool")

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", no_pool)
    assert parallel._row_blocks(4, lambda _, a, z: (a, z)) == [(0, 4)]
