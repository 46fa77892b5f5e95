"""Spans and counters recorded around the public calls into each layer.

The benchmark never edits the program to trace it.  A :class:`Tracer`
replaces a layer's entry point (a class attribute, a module attribute
or an attribute of one live object) with a wrapper that times the call,
and puts the original back when the traced region ends.

Spans nest: each open span accumulates the time of the spans opened
inside it, so a span's *self time* is its duration minus its children's
(``Router.allocate`` minus the ``route`` and ``execute_grant`` calls it
makes).  Spans are aggregated per name in memory -- total seconds, self
seconds, calls -- because the hot spans run hundreds of thousands of
times per second; the aggregate is what the benchmark writes out.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

_MISSING = object()


class Tracer:
    """Aggregated spans (``name -> [total_s, self_s, calls]``) and counters."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self._open: list[float] = []  # child seconds of each open span
        self._undo: list = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def timed(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a span; ``on_result(result)`` runs after it."""
        rec = self.spans.setdefault(name, [0.0, 0.0, 0])
        stack = self._open

        def span(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                rec[0] += elapsed
                rec[1] += elapsed - inner
                rec[2] += 1
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return span

    def counted(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a call counter only (no clock reads)."""
        counts = self.counts
        counts.setdefault(name, 0)

        def count(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return count

    def tally(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + amount

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, wrap) -> None:
        """Replace ``owner.attr`` with ``wrap(original)`` until :meth:`restore`.

        ``owner`` is a class, a module or one object.  An attribute the
        object only inherits from its class is shadowed on the object
        and deleted again on restore, so the class stays untouched.
        """
        own = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr)
        setattr(owner, attr, wrap(original))
        self._undo.append((owner, attr, own))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    @contextmanager
    def active(self):
        """Restore every patch made inside the block when it exits."""
        try:
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------
    def total(self, name: str) -> float:
        return self.spans.get(name, (0.0, 0.0, 0))[0]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, (0.0, 0.0, 0))[1]

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0.0, 0.0, 0))[2]

    def to_jsonable(self) -> dict:
        return {
            "spans": {
                name: {"total_s": rec[0], "self_s": rec[1], "calls": rec[2]}
                for name, rec in sorted(self.spans.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }
