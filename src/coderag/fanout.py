"""Overlapping independent model calls.

Probe scoring, each internal layer of the rerank tournament and the
index embeds make model calls that do not depend on one another.  When
the client's calls wait on I/O (it sets ``waits_on_io``), those calls
run on one process-wide pool of :data:`FANOUT_WIDTH` threads; for every
other client they run one after another on the caller's thread and no
thread is started.  Either way results come back in input order, so
outputs do not depend on which call finishes first.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterable, TypeVar

A = TypeVar("A")
R = TypeVar("R")

# Calls in flight at once.  Python's socketserver listens with a backlog
# of 5; a connection request beyond it waits about a second for its
# retransmit.  Against the benchmark's threading fake LM (2-vCPU host),
# width 8 made the 3,000-embed wire-small index build take 61 s instead
# of 1.9 s and raised its task p50 from about 208 to 253 ms.
FANOUT_WIDTH = 4
# Calls submitted ahead of the one being waited for.  Keeps the queue
# short when one caller has thousands of calls (the index embeds).
_AHEAD = 2 * FANOUT_WIDTH

# Its threads start on the first submit, not at import.
_POOL = ThreadPoolExecutor(max_workers=FANOUT_WIDTH, thread_name_prefix="coderag-fanout")


def call_each(client, fn: Callable[[A], R], args: Iterable[A]) -> list[R]:
    """``[fn(a) for a in args]``, overlapped on the pool when ``client``
    declares ``waits_on_io`` and there are at least two calls.

    ``fn`` must call the client and nothing that itself fans out.  When
    calls fail, the failure of the first failing argument in input order
    is raised, after the calls not yet started are cancelled and the
    running ones have finished, so no call outlives its caller.
    """
    args = list(args)
    if len(args) < 2 or not getattr(client, "waits_on_io", False):
        return [fn(a) for a in args]
    futures: deque = deque()
    results: list[R] = []
    try:
        for arg in args:
            if len(futures) == _AHEAD:
                results.append(futures.popleft().result())
            futures.append(_POOL.submit(fn, arg))
        while futures:
            results.append(futures.popleft().result())
    except BaseException:
        for future in futures:
            future.cancel()
        wait(futures)
        raise
    return results
