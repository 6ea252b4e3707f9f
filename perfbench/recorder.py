"""Span recorder for the layered benchmark.

Spans are recorded only from the benchmark's own code: :meth:`Recorder.wrap`
replaces a public method on a *live instance* (or, for objects created
inside a constructor, on its class for the duration of the set-up) with a
timing wrapper.  Nothing under ``src/`` is instrumented.

Each thread keeps its own span stack, so a span's parent is whatever span
is open on the same thread.  The one cross-thread link is the TCP hop: the
client's transport call registers its sealed request bytes, and the
frontend's ``serve`` wrapper looks the same bytes up on the server's worker
thread, making the client span the parent of the serve span and assigning
the request id there.  Sealed bytes carry a fresh nonce, so they identify
one transmission exactly, and the cluster router relays them unchanged.

A span is a small list ``[id, parent_id, request_id, name, start, end,
count]``; times come from :func:`time.perf_counter`.  Spans stay in memory
until :meth:`Recorder.write_jsonl` writes them out at the end of a run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

ID, PARENT, RID, NAME, START, END, COUNT = range(7)

#: Span name -> layer for self-time accounting.  The client span's self
#: time is the network hop (client seal/unseal, TCP, server event loop and,
#: on the cluster, the router).
LAYER_OF = {
    "client.op": "net",
    "service.serve": "service",
    "core.op": "core",
    "journal.write": "journal",
    "journal.clear": "journal",
    "crypto.open": "crypto",
    "crypto.seal": "crypto",
    "storage.read": "storage",
    "storage.write": "storage",
    "storage.flush": "storage",
    "storage.cold_read": "storage",
    "storage.cold_write": "storage",
    "repl.emit": "cluster",
    "repl.wait": "cluster",
    "repl.apply": "cluster",
}


class Recorder:
    """Collects spans from every thread of one in-process stack."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        # sealed request bytes -> the client span that sent them
        self._pending: Dict[bytes, list] = {}
        self._restore: List[Tuple[object, str, object, bool]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, count: int = 0,
              parent: Optional[list] = None,
              new_request: bool = False) -> list:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if new_request or parent is None:
            rid = next(self._request_ids) if new_request else None
        else:
            rid = parent[RID]
        span = [next(self._span_ids), parent[ID] if parent else 0, rid, name,
                time.perf_counter(), 0.0, count]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    # -- instrumentation ----------------------------------------------------

    def wrap(self, obj, method: str, name: str,
             count: Optional[Callable] = None,
             before: Optional[Callable] = None,
             new_request: bool = False) -> None:
        """Time every call of ``obj.method`` as a span called ``name``.

        ``count(args)`` gives the span's work count (frames, records);
        ``before(args)`` runs untimed just before the call;
        ``new_request`` makes every call the root of its own request.
        """
        original = getattr(obj, method)
        recorder = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span = recorder.begin(name, count(args) if count else 0,
                                  new_request=new_request)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.end(span)

        self.install(obj, method, wrapper)

    def wrap_client(self, client, ops: Iterable[str]) -> None:
        """Root span per client operation; register its sealed bytes."""
        for method in ops:
            self.wrap(client, method, "client.op")
        transact = client._transact
        pending = self._pending
        stack = self._stack

        def transact_wrapper(request_id, sealed):
            current = stack()
            if current:
                pending[bytes(sealed)] = current[-1]
            return transact(request_id, sealed)

        self.install(client, "_transact", transact_wrapper)

    def wrap_serve(self, frontend) -> None:
        """``serve`` span, parented to the client span that sent the bytes."""
        serve = frontend.serve
        recorder = self

        def serve_wrapper(session_id, sealed_request):
            client_span = recorder._pending.pop(bytes(sealed_request), None)
            span = recorder.begin("service.serve", parent=client_span,
                                  new_request=True)
            if client_span is not None:
                client_span[RID] = span[RID]
            try:
                return serve(session_id, sealed_request)
            finally:
                recorder.end(span)

        self.install(frontend, "serve", serve_wrapper)

    def install(self, obj, method: str, wrapper) -> None:
        """Replace ``obj.method`` with ``wrapper`` until :meth:`unwrap_all`."""
        own = isinstance(obj, type) or method in getattr(obj, "__dict__", {})
        self._restore.append((obj, method, getattr(obj, method), own))
        setattr(obj, method, wrapper)

    def unwrap_all(self) -> None:
        """Remove every wrapper, newest first; instances fall back to the
        class method."""
        while self._restore:
            obj, method, original, own = self._restore.pop()
            if own:
                setattr(obj, method, original)
            else:
                delattr(obj, method)

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path: str) -> int:
        keys = ("id", "parent", "request", "name", "start", "end", "count")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
        return len(self.spans)


def _children(spans: List[list]) -> Dict[int, List[list]]:
    children: Dict[int, List[list]] = defaultdict(list)
    for span in spans:
        if span[PARENT]:
            children[span[PARENT]].append(span)
    return children


def self_times(spans: List[list]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children = _children(spans)
    out = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        kids = sorted(children.get(span[ID], ()), key=lambda s: s[START])
        for child in kids:
            lo, hi = max(child[START], cursor), min(child[END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span[ID]] = (end - start) - covered
    return out


def request_trees(spans: List[list], root_name: str) -> List[List[list]]:
    """Every tree rooted at a span called ``root_name``, root first."""
    children = _children(spans)
    trees = []
    for span in spans:
        if span[NAME] != root_name or span[PARENT]:
            continue
        tree, todo = [], [span]
        while todo:
            node = todo.pop()
            tree.append(node)
            todo.extend(children.get(node[ID], ()))
        trees.append(tree)
    return trees


def outermost(tree: List[list], name: str) -> List[list]:
    """Spans called ``name`` with no ancestor of the same name."""
    by_id = {span[ID]: span for span in tree}
    out = []
    for span in tree:
        if span[NAME] != name:
            continue
        parent = by_id.get(span[PARENT])
        nested = False
        while parent is not None:
            if parent[NAME] == name:
                nested = True
                break
            parent = by_id.get(parent[PARENT])
        if not nested:
            out.append(span)
    return out
