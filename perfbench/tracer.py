"""In-memory spans around calls into the program's modules.

The program's modules bind their collaborators with ``from .ops import ...``,
so a span has to replace the name in the module that makes the call, not in
the module that defines it. While a :class:`Tracer` is active, each name in
``TARGETS`` is replaced by a wrapper that records a span (name, start, end,
parent) and, for the node-parallel helpers, the row counts they return.
Spans stay in memory until the caller summarizes them; nothing under
``src/`` changes.
"""

import importlib
import time
from contextlib import contextmanager

TARGETS = (
    ("sparqlsim.executor", ("triple_selection", "merged_selection", "pjoin",
                            "brjoin", "project")),
    ("sparqlsim.hybrid", ("pjoin", "brjoin", "project")),
    ("sparqlsim.ops", ("shuffle", "broadcast", "local_nary_join",
                       "for_each_node")),
    ("sparqlsim.engine", ("build_logical", "plan_pjoin_strategy",
                          "plan_mono_brjoin", "plan_multi_brjoin",
                          "execute_plan", "plan_and_execute_hybrid")),
    ("sparqlsim.bench", ("oracle_eval", "run_strategy")),
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "rows", "node_max",
                 "node_mean")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.rows = 0           # local_nary_join: rows produced
        self.node_max = 0.0     # for_each_node: rows on the fullest node
        self.node_mean = 0.0    # for_each_node: mean rows per node


def _count_rows(span: Span, out) -> None:
    span.rows = len(out)


def _count_nodes(span: Span, out) -> None:
    sizes = [len(chunk) for chunk in out]
    if sizes:
        span.node_max = max(sizes)
        span.node_mean = sum(sizes) / len(sizes)


_COUNTERS = {"local_nary_join": _count_rows, "for_each_node": _count_nodes}


class Tracer:
    """Records spans while used as a context manager; restores every
    replaced name on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, names in TARGETS:
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                counter(span, out)
            return out

        return traced


class Summary:
    """Per-name totals over the spans under one root span."""

    def __init__(self, scale: float):
        self.scale = scale
        self.duration: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.join_rows = 0
        self.node_max = 0.0
        self.node_mean = 0.0

    def dur(self, *names: str) -> float:
        return self.scale * sum(self.duration.get(n, 0.0) for n in names)

    def own(self, name: str) -> float:
        return self.scale * self.self_time.get(name, 0.0)

    @property
    def skew(self) -> float:
        """Rows on the fullest node over rows on the mean node, summed over
        every node-parallel step: the share of the step times a perfectly
        balanced layout would save."""
        return self.node_max / self.node_mean if self.node_mean else 1.0


def summarize(spans: list[Span], scale: float = 1.0) -> Summary:
    """Totals over ``spans``, which must hold one root span and its
    subtree; times are multiplied by ``scale``. A span's self time is its
    duration minus the durations of its direct children, so the self times
    add up to the root's duration."""
    if [s.name for s in spans if s.parent < 0] != [spans[0].name]:
        raise ValueError("spans must form a single tree")
    covered = [0.0] * len(spans)
    for span in spans[1:]:
        covered[span.parent] += span.end - span.start
    out = Summary(scale)
    for i, span in enumerate(spans):
        dur = span.end - span.start
        own = dur - covered[i]
        if own < -1e-9:
            raise AssertionError(f"span {span.name} ends before its children")
        out.duration[span.name] = out.duration.get(span.name, 0.0) + dur
        out.self_time[span.name] = out.self_time.get(span.name, 0.0) + own
        out.join_rows += span.rows
        out.node_max += span.node_max
        out.node_mean += span.node_mean
    return out
