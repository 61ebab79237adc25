"""Worker threads shared by the bundle digest, SOMP's multi-block scan, the
dictionary inverse, training's row-wise passes and reconstruct's expansion pass.

Work is cut into pieces whose bounds depend only on shapes, and each piece
is computed as one thread would compute it, so no result depends on how
many workers run.  Numpy releases the GIL while it copies, gathers,
reduces, maps or multiplies, and hashlib while it hashes a piece.  Each
piece runs in a copy of the caller's context, so numpy's errstate, a
context variable, holds on every worker as it does on the caller.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# one worker per CPU this process may run on: the calling thread and a pool
# of the others
_WORKERS = len(os.sched_getaffinity(0))

# rows per block of the row-wise passes: corpus_matrix's fill, the
# reference, map and centring of train_bundle and compute_reference, the
# dictionary inverse's columns, and reconstruct's expansion pass (_expand),
# whose block starts must be multiples of 8 (see there).  A matrix of one
# block is worked on by the calling thread alone
_REFERENCE_BLOCK = 65536


@functools.cache
def _openblas_thread_calls():
    """The thread-count getter and setter of the OpenBLAS that numpy loaded,
    or None when numpy links another BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        if hasattr(handle, "scipy_openblas_set_num_threads64_"):
            get = handle.scipy_openblas_get_num_threads64_
            get.argtypes, get.restype = [], ctypes.c_int
            put = handle.scipy_openblas_set_num_threads64_
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread.

    OpenBLAS splits a product with a long inner dimension across its threads
    along that dimension, so the product's sums, and the reports scored from
    them, would depend on the thread count.  evaluate's held-out products run
    under this pin, and so does a multi-block SOMP scan, whose picks must not
    depend on the thread count either and whose workers would compete with
    OpenBLAS's own threads.  So does reconstruct's expansion pass: its small
    (3, k) x (k, block) products gain nothing from OpenBLAS's threads, which
    would only compete with the pass's workers.  Each calls BLAS only from
    threads the pin covers, so setting the library's global count is safe.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _cuts(width: int, step: int, parts: int) -> list:
    """Cut points that split range(width) into at most parts pieces, each
    starting at a multiple of step, as evenly as those starts allow.

    A last piece narrower than step joins the piece before it: a narrow
    product can take another kernel, which sums in another order than the
    wider product does (numpy sends a one-column product to a GEMV, and
    OpenBLAS a small one to its small-matrix GEMM)."""
    units = width // step or 1
    parts = min(parts, units)
    return [units * i // parts * step for i in range(parts)] + [width]


@contextmanager
def _pool(pieces: int):
    """A pool of pieces - 1 threads, which with the calling thread make one
    worker per piece for _run; None for one piece, which starts no thread."""
    if pieces <= 1:
        yield None
        return
    with ThreadPoolExecutor(pieces - 1) as pool:
        yield pool


def _run(pool, task, cuts: list) -> None:
    """task(i, start, stop) for the i-th piece start:stop between cuts, the
    first on the calling thread and the others on pool's threads, each in
    its own copy of the caller's context: one context cannot be entered by
    two threads at once."""
    pieces = list(zip(range(len(cuts) - 1), cuts[:-1], cuts[1:]))
    others = [pool.submit(contextvars.copy_context().run, task, *piece)
              for piece in pieces[1:]]
    task(*pieces[0])
    for future in others:
        future.result()


def _row_cuts(n: int) -> list:
    """Cuts of n rows into one piece per worker, each piece a run of whole
    _REFERENCE_BLOCK-row blocks but the last; one piece when the rows make
    less than two blocks."""
    return _cuts(n, _REFERENCE_BLOCK, _WORKERS)


def _row_blocks(n: int, task, buffer=lambda: None) -> list:
    """task(buf, start, stop) for every _REFERENCE_BLOCK-row block start:stop
    of n rows, whose bounds do not depend on the worker count, and what each
    call returned, in block order.  Each worker takes the blocks of one piece
    of _row_cuts, in order, with its own buffer(), made on the calling thread
    before any block is worked on."""
    block = _REFERENCE_BLOCK
    cuts = _row_cuts(n)
    bufs = [buffer() for _ in cuts[1:]]
    results = [None] * -(-n // block)

    def piece(i, a, z):
        for start in range(a, z, block):
            results[start // block] = task(bufs[i], start, min(start + block, z))

    with _pool(len(bufs)) as pool:
        _run(pool, piece, cuts)
    return results
