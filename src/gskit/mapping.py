"""Parameter-plane region maps: grid classification, adjacency extraction,
CSV serialization.

The uniform map resolves the macro structure (fold boundary, Hopf curve, the
repelling-cycle band near the double-zero point).  The two-cycle wedge and
the thin stable-cycle band are orders of magnitude thinner than a 200x200
cell, so they are documented via zoom insets computed with the full census
classifier (fast=False).
"""
from __future__ import annotations

import os

import numpy as np

from . import dynamics
from .core import Params
from .errors import DomainError, GSKitError


def thread_budget(explicit: int | None = None) -> int:
    """Map workers: explicit when positive, else GSKIT_THREADS when set, else
    the core count.  DomainError when GSKIT_THREADS is set to anything but a
    positive integer."""
    if explicit is not None and explicit > 0:
        return explicit
    env = os.environ.get("GSKIT_THREADS", "").strip()
    if not env:
        return max(1, os.cpu_count() or 1)
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise DomainError(f"GSKIT_THREADS must be a positive integer, not {env!r}")
    return n


def _classify_cell(args):
    k, F, fast = args
    if k <= 0 or F <= 0:
        return "outside"
    try:
        if fast:
            return dynamics.probe_region(k, F).id
        return dynamics.classify_region(Params(k, F)).id
    except GSKitError:
        return "x"


def _classify_column(args):
    k, F_values, fast = args
    return [_classify_cell((k, F, fast)) for F in F_values]


def region_map(k_range: tuple, F_range: tuple, nk: int, nF: int, *,
               fast: bool = True, threads: int | None = None) -> tuple:
    """Labels[iF][jk] over the grid, and {k_values, F_values}, its axes.

    Row index runs over F (ascending), column index over k (ascending).
    Columns are classified independently; with threads > 1 they run in a
    process pool, whose map yields them in job order, as map does, so
    output is deterministic.
    """
    ks = np.linspace(k_range[0], k_range[1], nk)
    Fs = np.linspace(F_range[0], F_range[1], nF)
    jobs = [(float(k), [float(F) for F in Fs], fast) for k in ks]
    nthreads = min(thread_budget(threads), nk)
    if nthreads > 1:
        # imported here, so that single-worker maps and the other commands
        # do not load the pool and multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=nthreads) as pool:
            columns = list(pool.map(_classify_column, jobs, chunksize=4))
    else:
        columns = list(map(_classify_column, jobs))
    labels = [list(row) for row in zip(*columns)]
    meta = {"k_values": [float(k) for k in ks],
            "F_values": [float(F) for F in Fs]}
    return labels, meta


def adjacency(labels: list) -> set:
    """Set of frozenset label pairs that share at least two cell edges."""
    counts = {}
    nF = len(labels)
    nk = len(labels[0]) if nF else 0
    for i in range(nF):
        for j in range(nk):
            a = labels[i][j]
            for di, dj in ((0, 1), (1, 0)):
                ii, jj = i + di, j + dj
                if ii < nF and jj < nk:
                    b = labels[ii][jj]
                    if a != b:
                        key = frozenset((a, b))
                        counts[key] = counts.get(key, 0) + 1
    return {k for k, n in counts.items() if n >= 2}


def map_to_csv(labels: list, meta: dict) -> str:
    lines = ["k,F,label"]
    for i, F in enumerate(meta["F_values"]):
        for j, k in enumerate(meta["k_values"]):
            lines.append(f"{k!r},{F!r},{labels[i][j]}")
    return "\n".join(lines) + "\n"
