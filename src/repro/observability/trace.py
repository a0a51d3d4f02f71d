"""End-to-end pipeline tracing: spans, context propagation, ring buffer.

The Figure 5 pipeline is synchronous — a primitive event flows from the
event source agent through the detector agents' operator DAGs to the
delivery agent and the participant queues inside one call stack.  The
tracer exploits that: a *span* opened while another span is active becomes
its child, so the natural call nesting reconstructs the pipeline hops
without any thread-local or async context plumbing.

Spans are logical-clock-aware: each records the event's logical ``time``
alongside its wall-clock duration, so a trace answers both "which hops did
this event take" (structure) and "what did each hop cost" (latency).  On
close, every span feeds a per-stage latency histogram
(``pipeline_stage_us``, with the bucket conventions of
:mod:`repro.metrics.latency`) in the registry the tracer is bound to
(:meth:`Tracer.bind_registry`: the traced system's or facade's; none,
no histogram), and completed *root* spans join a bounded
ring buffer (:meth:`Tracer.recent`) exportable as JSON — the flight
recorder read by the ``repro trace`` CLI.

Everything here is allocation-light by design: a span is one ``__slots__``
object, two ``perf_counter`` reads, and one histogram observation; the
tracer holds no global state beyond its stack and ring buffer.

**Head-based sampling.**  Recording every span of every trace would put a
fixed per-stage tax on the hot path, so the tracer samples at the *trace*
root: one in :attr:`Tracer.sample_every` traces is recorded in full
(span tree, histograms, ring buffer); the rest cost only two integer
depth updates per stage.  The sampling decision is made once when the
root span opens and applies to the whole trace, so recorded trees are
never partial.  Set ``sample_every=1`` to record everything (tests do).
Provenance is *not* sampled — recognition chains stay complete.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple, cast

from ..metrics.latency import STAGE_LATENCY_BUCKETS_US
from .registry import BoundHistogram, Histogram, LabelValues, MetricsRegistry

#: Default capacity of the recent-trace ring buffer.
DEFAULT_MAX_TRACES = 256

#: Default trace sampling period: record one in this many traces fully.
DEFAULT_SAMPLE_EVERY = 16

#: The per-stage latency histogram every bound tracer records into.
STAGE_HISTOGRAM = "pipeline_stage_us"

JsonSpan = Dict[str, object]

WireTraceContext = List[object]


@dataclass(frozen=True)
class TraceContext:
    """The portable identity of one logical trace.

    Three fields cross the shard boundary inside wire frames: which trace
    a batch of events belongs to, which facade-side span is the logical
    parent of the work a worker performs for it, and whether the facade's
    head sampler chose to record the trace.  Workers honor ``sampled``
    verbatim — there is no re-sampling downstream, so a recorded trace is
    never partial across shards.
    """

    trace_id: str
    parent_span_id: str
    sampled: bool

    def to_wire(self) -> WireTraceContext:
        """The compact list form carried on ``events`` frames."""
        return [self.trace_id, self.parent_span_id, 1 if self.sampled else 0]

    @classmethod
    def from_wire(
        cls, payload: Optional[Sequence[object]]
    ) -> Optional["TraceContext"]:
        if payload is None:
            return None
        trace_id, parent_span_id, sampled = payload
        return cls(str(trace_id), str(parent_span_id), bool(sampled))


class _LightSpan:
    """Singleton token for stages of a trace the sampler skipped."""

    __slots__ = ()


_LIGHT = _LightSpan()
#: The token under its public type; a zero-cost alias for annotations.
_LIGHT_AS_SPAN = cast("Span", _LIGHT)


class Span:
    """One timed pipeline stage of a recorded trace."""

    __slots__ = (
        "name",
        "logical_time",
        "attributes",
        "start",
        "duration",
        "children",
    )

    def __init__(
        self,
        name: str,
        logical_time: Optional[int],
        attributes: Optional[Dict[str, object]],
    ) -> None:
        self.name = name
        self.logical_time = logical_time
        self.attributes = attributes
        self.start = 0.0
        self.duration = 0.0
        self.children: List[Span] = []

    @property
    def duration_us(self) -> float:
        return self.duration * 1e6

    def to_dict(self) -> JsonSpan:
        """A JSON-able rendering of this span and its subtree."""
        out: JsonSpan = {
            "name": self.name,
            "duration_us": round(self.duration_us, 3),
        }
        if self.logical_time is not None:
            out["logical_time"] = self.logical_time
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def render(self, indent: int = 0) -> str:
        """An indented one-span-per-line tree rendering."""
        attrs = ""
        if self.attributes:
            attrs = " " + " ".join(
                f"{key}={value}" for key, value in self.attributes.items()
            )
        time_part = (
            f" t={self.logical_time}" if self.logical_time is not None else ""
        )
        lines = [
            f"{'  ' * indent}{self.name}{time_part} "
            f"({self.duration_us:.1f}us){attrs}"
        ]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


class Tracer:
    """Span recorder for the synchronous pipeline.

    One tracer is single-threaded by construction (the pipeline it
    instruments is synchronous); traces from concurrent federations should
    use separate tracers.
    """

    def __init__(
        self,
        max_traces: int = DEFAULT_MAX_TRACES,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
    ) -> None:
        self._stack: List[Span] = []
        self._traces: Deque[Span] = deque(maxlen=max_traces)
        self.max_traces = max_traces
        self.completed_spans = 0
        #: Record one in this many traces fully; mutable at any trace
        #: boundary (1 = record everything).
        self.sample_every = max(1, sample_every)
        self._trace_count = 0
        #: Nesting depth inside a trace the sampler skipped.  Part of the
        #: hot-path contract: a pipeline stage that finds it non-zero
        #: opens nothing — no begin/end, no bump — and runs its work
        #: directly; ``begin``/``end`` handle the roots, so the depth
        #: returns to zero when the skipped trace's root ends.
        self._light_depth = 0
        #: The registry closed spans feed (``None``: no histogram).
        self.registry: Optional[MetricsRegistry] = None
        self._histogram: Optional[Histogram] = None
        self._stage_children: Dict[str, BoundHistogram] = {}

    def bind_registry(self, registry: Optional[MetricsRegistry]) -> None:
        """Record per-stage latency into *registry* (``pipeline_stage_us``),
        or into nothing when it is ``None``."""
        self.registry = registry
        self._histogram = None if registry is None else registry.histogram(
            STAGE_HISTOGRAM,
            buckets=STAGE_LATENCY_BUCKETS_US,
            description="Wall-clock cost of one pipeline stage (microseconds)",
            label_names=("stage",),
        )
        self._stage_children.clear()

    # -- span lifecycle ----------------------------------------------------

    @contextmanager
    def span(
        self,
        name: str,
        logical_time: Optional[int] = None,
        **attributes: object,
    ) -> Iterator[Span]:
        """:meth:`begin` and :meth:`end` around a ``with`` block."""
        span = self.begin(name, logical_time, attributes or None)
        try:
            yield span
        finally:
            self.end(span)

    def begin(
        self,
        name: str,
        logical_time: Optional[int] = None,
        attributes: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Open and start a span; close it with :meth:`end`, normally
        from a ``finally`` block.

        This is where the sampling decision is made.  Callers pass a
        *pre-built* (and freely shared — spans never mutate it)
        attributes dict.  When the sampler skips the current trace, the
        return value is a shared token and the stage costs two integer
        updates; nothing is allocated.
        """
        if self._light_depth:
            self._light_depth += 1
            return _LIGHT_AS_SPAN
        if not self._stack:
            self._trace_count += 1
            if self._trace_count % self.sample_every:
                self._light_depth = 1
                return _LIGHT_AS_SPAN
        span = Span(name, logical_time, attributes)
        stack = self._stack
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        span.start = perf_counter()
        return span

    def begin_root(
        self,
        name: str,
        sampled: bool,
        logical_time: Optional[int] = None,
        attributes: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Open a root span with a *forced* sampling decision.

        This is how a worker honors the facade's head-sampling choice
        carried in a :class:`TraceContext`: the local sampler is bypassed
        entirely, so the worker neither drops a trace the facade chose to
        record nor records one it chose to skip.  When a span is already
        active (the caller is not actually at a trace root) the enclosing
        trace's decision wins and this degrades to :meth:`begin`.
        Close with :meth:`end` either way.
        """
        if self._light_depth or self._stack:
            return self.begin(name, logical_time, attributes)
        self._trace_count += 1
        if not sampled:
            self._light_depth = 1
            return _LIGHT_AS_SPAN
        span = Span(name, logical_time, attributes)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def end(self, span: Span) -> None:
        """Close a span opened with :meth:`begin`."""
        if span is _LIGHT_AS_SPAN:
            self._light_depth -= 1
            return
        span.duration = perf_counter() - span.start
        self._finish(span)

    def _finish(self, span: Span) -> None:
        stack = self._stack
        # The synchronous pipeline closes spans LIFO; tolerate a mismatch
        # (e.g. an exception unwinding several stages) by popping to *span*.
        while stack:
            top = stack.pop()
            if top is span:
                break
        if not stack:
            self._traces.append(span)
        self.completed_spans += 1
        histogram = self._histogram
        if histogram is not None:
            child = self._stage_children.get(span.name)
            if child is None:
                child = self._stage_children[span.name] = histogram.child(
                    (span.name,)
                )
            # The tracer is single-threaded by construction (see the class
            # docstring), so the relaxed observe is safe here.
            child.observe_relaxed(span.duration * 1e6)

    # -- inspection --------------------------------------------------------

    @property
    def active_depth(self) -> int:
        return len(self._stack)

    @property
    def current_trace_id(self) -> Optional[int]:
        """Sequence number of the in-flight *sampled* trace, else ``None``.

        Trace ids count root spans since the last :meth:`clear`; the
        structured log stamps records with this id so a log line can be
        joined to the span tree that was active when it was emitted.
        Unsampled (light) traces report ``None`` — there is no recorded
        tree to join against.
        """
        if self._stack:
            return self._trace_count
        return None

    def recent(self) -> Tuple[Span, ...]:
        """The ring buffer of completed root spans, oldest first."""
        return tuple(self._traces)

    def export_json(self) -> List[JsonSpan]:
        """The ring buffer as JSON-able dicts (for files and the CLI)."""
        return [span.to_dict() for span in self._traces]

    def clear(self) -> None:
        """Drop recorded traces (the stack is left to unwind naturally)."""
        self._traces.clear()
        self.completed_spans = 0
        self._trace_count = 0


def is_recorded(span: Span) -> bool:
    """True when *span* is a real recorded span, not the sampler's token."""
    return span is not _LIGHT_AS_SPAN


def stage_summary(registry: MetricsRegistry) -> Dict[str, Tuple[int, float]]:
    """Per-stage ``(count, mean_us)`` of the :data:`STAGE_HISTOGRAM` in
    *registry* (a tracer's, keyed by ``stage``)."""
    histogram = registry.get(STAGE_HISTOGRAM)
    if not isinstance(histogram, Histogram):
        return {}
    out: Dict[str, Tuple[int, float]] = {}
    for labels in histogram.series_labels():
        __, total, count = histogram.snapshot(labels)
        out[labels[-1]] = (count, total / count if count else 0.0)
    return out


def stage_p95(registry: MetricsRegistry) -> Dict[LabelValues, float]:
    """The p95 of every :data:`STAGE_HISTOGRAM` series in *registry*,
    by label tuple (``(stage,)``, or ``(shard, stage)`` in a merged
    federation registry): :meth:`Histogram.quantile` at 0.95."""
    histogram = registry.get(STAGE_HISTOGRAM)
    if not isinstance(histogram, Histogram):
        return {}
    return {
        labels: histogram.quantile(0.95, labels)
        for labels in sorted(histogram.series_labels())
    }


class TraceAssembler:
    """Facade-side stitching of worker span batches into logical traces.

    The facade makes the head-sampling decision when a wave of events
    leaves for the shards (:meth:`begin`); each shard that receives part
    of the wave opens its own pipeline root span under the wave's
    :class:`TraceContext` and ships the completed tree back on its next
    read response (stats, flush or metrics).  :meth:`add_batch` reattaches those trees under
    the originating wave, so one logical trace ends up holding the spans
    of every shard the wave touched.

    The assembler mirrors the tracer's one-in-``sample_every`` cadence
    (the decision is made *here*, once per wave — workers honor it
    verbatim), keeps a bounded window of assembled traces, and counts
    what it could not place: ``orphaned`` batches referencing unknown or
    evicted traces, and ``evicted`` traces pushed out of the window.
    """

    def __init__(
        self,
        max_traces: int = 64,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
    ) -> None:
        self.sample_every = max(1, sample_every)
        self.max_traces = max_traces
        self._count = 0
        self._traces: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self.orphaned = 0
        self.evicted = 0

    def begin(self, op: str) -> TraceContext:
        """Open a logical trace for one ship wave; returns its context.

        Mirrors :class:`Tracer` head sampling: one wave in
        ``sample_every`` is recorded (the tracer records trace number
        ``k`` when ``k % sample_every == 0``, and so does this).
        """
        self._count += 1
        sampled = self._count % self.sample_every == 0
        trace_id = f"t{self._count:06d}"
        context = TraceContext(trace_id, f"{trace_id}.root", sampled)
        if sampled:
            self._traces[trace_id] = {
                "trace_id": trace_id,
                "op": op,
                "root_span_id": context.parent_span_id,
                "spans": [],
            }
            while len(self._traces) > self.max_traces:
                self._traces.popitem(last=False)
                self.evicted += 1
        return context

    def add_batch(self, batch: Dict[str, object]) -> bool:
        """Attach one shipped worker span tree; False if it had no home.

        A batch carries ``trace`` (trace id), ``parent`` (the span id the
        worker parented under — must be the trace's root span for correct
        linkage), ``shard``, and ``span`` (the worker root span's
        ``to_dict`` tree).
        """
        trace = self._traces.get(str(batch.get("trace")))
        if trace is None or batch.get("parent") != trace["root_span_id"]:
            self.orphaned += 1
            return False
        cast(List[Dict[str, object]], trace["spans"]).append(
            {"shard": batch.get("shard"), "span": batch.get("span")}
        )
        return True

    def traces(self) -> Tuple[Dict[str, object], ...]:
        """Assembled traces, oldest first (only sampled waves appear)."""
        return tuple(self._traces.values())

    def shards_of(self, trace: Dict[str, object]) -> Tuple[int, ...]:
        """The distinct shard ids contributing spans to one trace."""
        spans = cast(List[Dict[str, object]], trace["spans"])
        return tuple(sorted({cast(int, entry["shard"]) for entry in spans}))

    def render(self, trace: Dict[str, object]) -> str:
        """A one-trace tree rendering for the CLI."""
        lines = [
            f"{trace['trace_id']} {trace['op']} "
            f"shards={list(self.shards_of(trace))}"
        ]
        for entry in cast(List[Dict[str, object]], trace["spans"]):
            span = cast(JsonSpan, entry["span"])
            lines.append(f"  shard {entry['shard']}:")
            lines.extend(
                "    " + line for line in _render_span_tree(span, 0)
            )
        return "\n".join(lines)


def _render_span_tree(span: JsonSpan, indent: int) -> List[str]:
    duration = span.get("duration_us", 0.0)
    time_part = (
        f" t={span['logical_time']}" if "logical_time" in span else ""
    )
    lines = [f"{'  ' * indent}{span.get('name')}{time_part} ({duration}us)"]
    for child in cast(List[JsonSpan], span.get("children", [])):
        lines.extend(_render_span_tree(child, indent + 1))
    return lines
