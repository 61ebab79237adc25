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
