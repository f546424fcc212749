"""Span tracing of uqsim from outside, by wrapping its public functions.

Each wrapped call records one span: name, start, end, parent span and the
key it ran under (a sweep cell index or a replay id). Spans are kept in
compact arrays in memory and written to disk once, when the benchmark ends.
A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.

Wrappers are installed on the attribute the caller looks up at call time
(a class attribute, or the module global the calling module reads), and
removed again by ``Tracer.restore``. Nothing in ``src/uqsim`` is edited.
"""

from __future__ import annotations

import array
import json
import sys
import time
from pathlib import Path
from typing import Callable, Optional

Hook = Callable[[tuple, dict, object], None]


class Tracer:
    """One traced pass: wrappers, spans, and per-name aggregates."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_id = array.array("H")
        self.parent = array.array("i")
        self.key = array.array("h")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._key = -1
        self._next_key = 0
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        hook: Optional[Hook] = None,
        keyed: bool = False,
        name: Optional[str] = None,
    ) -> None:
        """Replace ``owner.attr`` (a class or module) by a span-recording wrapper.

        ``hook(args, kwargs, result)`` runs after the call to record counts
        at the same boundary. A ``keyed`` wrapper starts a new key (cell or
        replay id) that its span and all spans below it carry. The span name
        defaults to the owner's last dotted component and ``attr``.
        """
        fn = getattr(owner, attr)
        nid = len(self.names)
        self.names.append(name or f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}")  # type: ignore[attr-defined]
        self.layers.append(layer)
        names, parents, keys = self.name_id, self.parent, self.key
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            keys.append(self._key)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        outer = wrapper
        if keyed:

            def outer(*args, **kwargs):
                outer_key = self._key
                self._key = self._next_key
                self._next_key += 1
                try:
                    return wrapper(*args, **kwargs)
                finally:
                    self._key = outer_key

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, outer)

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        A child always has a higher index than its parent, so one pass in
        reverse index order sees every child before its parent.
        """
        n = len(self.name_id)
        child = array.array("d", bytes(8 * n))
        k = len(self.names)
        calls, incl, self_s = [0] * k, [0.0] * k, [0.0] * k
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        for i in range(n - 1, -1, -1):
            d = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child[p] += d
            j = name_id[i]
            calls[j] += 1
            incl[j] += d
            self_s[j] += d - child[i]
        return {
            name: {"layer": layer, "calls": calls[j], "incl_s": incl[j], "self_s": self_s[j]}
            for j, (name, layer) in enumerate(zip(self.names, self.layers))
        }

    def durations(self, name: str) -> list[float]:
        """Duration of every span of one name, in call order."""
        j = self.names.index(name)
        start, end = self.start, self.end
        return [end[i] - start[i] for i, nid in enumerate(self.name_id) if nid == j]


def write_spans(path: Path, passes: dict[str, Tracer]) -> None:
    """Write the spans of several passes: a JSON index plus raw arrays.

    ``<path>.json`` names each pass's span names, layers and array offsets
    in ``<path>.bin``; each array is stored in native byte order.
    """
    index: dict[str, object] = {"byteorder": sys.byteorder, "passes": {}}
    offset = 0
    with open(path.with_suffix(".bin"), "wb") as fh:
        for label, tracer in passes.items():
            fields = {}
            for field in ("name_id", "parent", "key", "start", "end"):
                arr = getattr(tracer, field)
                arr.tofile(fh)
                fields[field] = {"typecode": arr.typecode, "offset": offset, "count": len(arr)}
                offset += arr.itemsize * len(arr)
            index["passes"][label] = {  # type: ignore[index]
                "names": tracer.names,
                "layers": tracer.layers,
                "arrays": fields,
            }
    path.with_suffix(".json").write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")
