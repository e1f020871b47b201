"""In-memory spans recorded around calls into the program's public functions."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Spans are [id, parent id, trace id, name, start s, end s], kept until save()."""

    def __init__(self):
        self.spans: list[list] = []
        self.trace_id = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else None, self.trace_id, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str) -> None:
        """Replace module.attr by a wrapper that records one span per call."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        setattr(module, attr, traced)

    def total(self, *names: str) -> float:
        """Summed duration in seconds of every span with one of these names."""
        return sum(s[5] - s[4] for s in self.spans if s[3] in names)

    def self_times(self) -> dict[str, float]:
        """Per name: summed duration minus the time covered by child spans."""
        own = {}
        for s in self.spans:
            own[s[0]] = s[5] - s[4]
        for s in self.spans:
            if s[1] is not None:
                own[s[1]] -= s[5] - s[4]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s[3]] = out.get(s[3], 0.0) + own[s[0]]
        return out

    def save(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "self_s": self.self_times()}))

    @classmethod
    def load(cls, path: Path) -> "Tracer":
        t = cls()
        t.spans = json.loads(path.read_text())["spans"]
        return t
