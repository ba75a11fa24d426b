"""Spans recorded by the benchmark around calls into the package's layers.

Nothing in the package is instrumented: :meth:`Tracer.wrap` replaces a
module attribute (a public function, or a kernel entry point) with a
wrapper that records a span, and :meth:`Tracer.unwrap_all` restores the
originals.  Because the package's modules look these names up at call
time, calls between layers are seen too, and each span's parent is the
innermost open span on the same thread.  Spans stay in memory until
:meth:`Tracer.dump` writes them out.
"""

import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, start_ns, end_ns, thread)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sid = len(self.spans)
            self.spans.append(None)
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans[sid] = (sid, parent, name, start, end, threading.get_ident())

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        span = self.span

        def traced(*args, **kwargs):
            with span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def durations(self) -> dict[str, list[float]]:
        """Durations in seconds of the finished spans, by span name."""
        out: dict[str, list[float]] = {}
        for s in self.spans:
            if s is not None:
                out.setdefault(s[2], []).append((s[4] - s[3]) * 1e-9)
        return out

    def dump(self, path: str) -> None:
        names = ("id", "parent", "name", "start_ns", "end_ns", "thread")
        with open(path, "w") as fh:
            json.dump([dict(zip(names, s)) for s in self.spans if s is not None], fh)
