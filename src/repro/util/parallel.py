"""Per-item fan-out over a batch of independent payloads.

:func:`parallel_map` is a plain serial loop: results come back in input
order, and the first failing item's exception propagates with the items
after it never run. The core is single-threaded (lint rule HYG205): this
work is CPU-bound and in-process, so under the GIL threads cannot speed
it up, and measured, a pool only slowed it down.

It stays a named function rather than an inline comprehension because
the layer tracer (``perfbench/tracing.py``) hooks
``repro.util.parallel.parallel_map`` by name, to attribute time to each
item and to report the ``parallel.*`` rows.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """``[fn(x) for x in items]``: input order, first error propagates."""
    return [fn(item) for item in items]
