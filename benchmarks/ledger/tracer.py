"""Outside-in span tracer: wraps the instance attributes at each layer
boundary of one agent, from the benchmark's side, and derives self times.

Nothing in ``src/`` knows about this file.  ``install`` shadows the bound
methods listed in :data:`BOUNDARIES` with recording closures set as
*instance* attributes (every call site in the program looks them up on the
instance at call time); ``uninstall`` deletes those attributes again, which
restores the class's methods.  A span is one list

    [layer, name, start, end, parent, command id]

kept in memory until :meth:`Tracer.dump` writes it out.  A layer's self
time is its span's duration minus the part its child spans cover.  A
wrapper reads the clock first on entry and last on exit, so its own
bookkeeping lands in the span it records (``trace.overhead_ratio`` says
how much that is), not in the caller's self time.
"""

from __future__ import annotations

import json
import threading
import time

LAYER, NAME, START, END, PARENT, CMD = range(6)

#: The root span the client loop opens around ``conn.execute``; its self
#: time is what no named layer accounts for.
CLIENT = "client"

#: (agent attribute holding the object, or None for the agent itself,
#:  method, layer = the module the method lives in)
BOUNDARIES = (
    ("gateway", "execute_for", "gateway"),
    ("gateway", "submit_for", "gateway"),
    ("language_filter", "classify", "eca_parser"),
    (None, "handle_eca", "agent"),
    ("persistent_manager", "execute", "persistence"),
    ("server", "execute", "sqlengine"),
    ("notifier", "on_payload", "notifier"),
    ("led", "raise_event", "led"),
    ("led", "raise_events", "led"),
    ("led", "flush_deferred", "led"),
    ("action_handler", "run_action", "action_handler"),
)

def wrapped_boundaries(agent) -> list[str]:
    """The boundaries of ``agent`` currently shadowed by an instance
    attribute — empty outside a traced pass."""
    out = []
    for holder, method, _layer in BOUNDARIES:
        obj = agent if holder is None else getattr(agent, holder)
        if method in vars(obj):
            out.append(f"{holder or 'agent'}.{method}")
    return out


class Tracer:
    """Records (layer, start, end, parent, command) spans in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: seconds from ``execute_for`` to the first layer call on a pool
        #: worker, one per command that crossed the pool
        self.queue_waits: list[float] = []
        self._local = threading.local()
        #: id(sql text) -> the client thread's ``execute_for`` span; a pool
        #: worker adopts it as the parent of the spans it records
        self._handoff: dict[int, list] = {}
        self._installed: list[tuple[object, str]] = []

    # ------------------------------------------------------------------
    # wrapping

    def install(self, agent) -> None:
        """Wrap every boundary of ``agent`` not wrapped already (the SQL
        server outlives an agent restart and keeps its wrapper)."""
        for holder, method, layer in BOUNDARIES:
            obj = agent if holder is None else getattr(agent, holder)
            if method in vars(obj):
                continue
            wrapper = self._wrap(getattr(obj, method), layer, method)
            setattr(obj, method, wrapper)
            self._installed.append((obj, method))

    def uninstall(self) -> None:
        """Delete every wrapper, restoring the classes' own methods."""
        for obj, method in self._installed:
            vars(obj).pop(method, None)
        self._installed.clear()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _adopt(self, args, now: float) -> list | None:
        """Parent for a call made with an empty span stack: a pool worker
        picking a command up.  Every top-level call the gateway makes on
        the worker passes the command's own ``sql`` object first, which is
        how the worker finds the client thread's span."""
        local = self._local
        if args and type(args[0]) is str:
            span = self._handoff.pop(id(args[0]), None)
            if span is not None:
                self.queue_waits.append(now - span[START])
                local.adopted = span
                return span
        return getattr(local, "adopted", None)

    def _wrap(self, bound, layer: str, name: str):
        spans = self.spans
        clock = time.perf_counter
        get_stack = self._stack
        adopt = self._adopt
        handoff = self._handoff if name == "execute_for" else None

        def traced(*args, **kwargs):
            start = clock()
            stack = get_stack()
            parent = stack[-1] if stack else adopt(args, start)
            span = [layer, name, start, 0.0, parent,
                    parent[CMD] if parent is not None else -1]
            spans.append(span)
            stack.append(span)
            if handoff is not None:
                handoff[id(args[1])] = span
            try:
                return bound(*args, **kwargs)
            finally:
                stack.pop()
                if handoff is not None:
                    handoff.pop(id(args[1]), None)
                span[END] = clock()

        return traced

    # ------------------------------------------------------------------
    # spans opened by the benchmark itself

    def begin(self, command_id: int) -> list:
        """Open the root span of one client command; returns it."""
        return self.open(CLIENT, "execute", command_id)

    def open(self, layer: str, name: str, command_id: int | None = None):
        """Open a span from the benchmark's side: a command's root, or
        work the benchmark does on a layer's behalf (building a fresh
        ``EcaAgent`` is the agent layer recovering)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if command_id is None:
            command_id = parent[CMD] if parent is not None else -1
        span = [layer, name, 0.0, 0.0, parent, command_id]
        self.spans.append(span)
        stack.append(span)
        span[START] = time.perf_counter()
        return span

    def end(self, span: list) -> float:
        """Close a span opened by :meth:`begin` / :meth:`open`; returns
        its duration in seconds."""
        end = span[END] = time.perf_counter()
        self._stack().pop()
        return end - span[START]

    # ------------------------------------------------------------------
    # output

    def dump(self, path) -> int:
        """Write one JSON line per span; returns the number written."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                parent = span[PARENT]
                handle.write(json.dumps({
                    "id": i,
                    "layer": span[LAYER],
                    "name": span[NAME],
                    "start_us": round((span[START] - origin) * 1e6, 3),
                    "end_us": round((span[END] - origin) * 1e6, 3),
                    "parent": index[id(parent)] if parent is not None else None,
                    "cmd": span[CMD],
                }) + "\n")
        return len(self.spans)


def sub_layer(span: list) -> str:
    """``sqlengine`` spans split by who issued the SQL: the gateway (the
    client's own statement, native trigger body included), the action
    handler (context refresh + procedure) or anything else (persistence)."""
    if span[LAYER] != "sqlengine":
        return span[LAYER]
    parent = span[PARENT]
    issuer = parent[LAYER] if parent is not None else ""
    if issuer == "gateway":
        return "sqlengine:client"
    if issuer == "action_handler":
        return "sqlengine:action"
    return "sqlengine:other"


class Breakdown:
    """Self times per command and layer, folded from a span list."""

    def __init__(self, spans: list[list]) -> None:
        #: command id -> client-measured latency (the root span)
        self.latency: dict[int, float] = {}
        #: command id -> {sub-layer: self seconds}
        self.self_time: dict[int, dict[str, float]] = {}
        #: sub-layer -> number of spans
        self.calls: dict[str, int] = {}
        #: method name -> span durations
        self.durations: dict[str, list[float]] = {}
        covered: dict[int, float] = {}  # id(span) -> seconds its children cover
        for span in spans:
            parent = span[PARENT]
            if parent is not None:
                covered[id(parent)] = (covered.get(id(parent), 0.0)
                                       + span[END] - span[START])
        for span in spans:
            duration = span[END] - span[START]
            if span[LAYER] == CLIENT:
                self.latency[span[CMD]] = duration
            key = sub_layer(span)
            per_cmd = self.self_time.setdefault(span[CMD], {})
            per_cmd[key] = (per_cmd.get(key, 0.0) + duration
                            - covered.get(id(span), 0.0))
            self.calls[key] = self.calls.get(key, 0) + 1
            self.durations.setdefault(span[NAME], []).append(duration)
        self.wall = sum(self.latency.values())

    def per_command(self, *keys: str) -> list[float]:
        """Self seconds of the given sub-layers, one value per traced
        command (zero where the command never entered them)."""
        return [sum(self.self_time[cmd].get(key, 0.0) for key in keys)
                for cmd in self.latency]

    def entered(self, *keys: str) -> list[float]:
        """The same, over only the commands that entered the sub-layers."""
        return [value for value in self.per_command(*keys) if value]

    def total(self, *keys: str) -> float:
        return sum(self.per_command(*keys))

    def call_count(self, *keys: str) -> int:
        return sum(self.calls.get(key, 0) for key in keys)

    def coverage(self) -> float:
        """Share of client wall time that named layers account for."""
        if not self.wall:
            return 0.0
        return 1.0 - self.total(CLIENT) / self.wall

    def gaps(self) -> list[float]:
        """Per command: |sum of layer self times - client latency| as a
        share of that latency."""
        out = []
        for cmd, latency in self.latency.items():
            named = sum(value for key, value in self.self_time[cmd].items()
                        if key != CLIENT)
            out.append(abs(named - latency) / latency if latency else 0.0)
        return out
