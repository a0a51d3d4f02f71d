"""Metrics registry: named counters, gauges, and histograms with labels.

The Figure 5 pipeline previously reported its health through hand-rolled
``collections.Counter`` dicts and bare ``int`` attributes scattered across
the bus, the producers, and the engines.  This module replaces them with a
single dependency-free instrument model in the spirit of the Prometheus
client (SNIPPETS.md's observability exemplars), scoped per
:class:`MetricsRegistry` so every :class:`~repro.federation.system.EnactmentSystem`
owns its own isolated metric space while standalone components fall back to
a private registry.  There is no process-wide registry: an instrument lives
in the registry of the one thing it observes.

Three instrument kinds cover the pipeline's needs:

* :class:`Counter` — monotonically increasing totals (events published,
  notifications delivered);
* :class:`Gauge` — settable point-in-time values, including *callback*
  gauges evaluated lazily at collection time (``instances_total``);
* :class:`Histogram` — fixed-bucket distributions (per-stage latency).

Instruments support a fixed tuple of label names declared at registration;
each distinct label-value tuple is one *series*.  Series creation is
bounded (:data:`DEFAULT_MAX_SERIES`) so a buggy caller cannot turn the
registry into an unbounded memory leak — exceeding the bound raises
:class:`MetricsError` rather than silently dropping data.

All mutating operations are thread-safe (one lock per instrument).  A
registry is read three ways: :meth:`MetricsRegistry.readings` (what SLO
rules and the telemetry source see), the lossless
:meth:`MetricsRegistry.snapshot` (what shards ship), and the
Prometheus-style :meth:`MetricsRegistry.render_text`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ReproError

#: Upper bound on distinct label-value tuples per instrument.
DEFAULT_MAX_SERIES = 1024

LabelValues = Tuple[str, ...]

#: One reading of an instrument: ``(series label or None, value)``.
Reading = Tuple[Optional[str], float]


class MetricsError(ReproError):
    """An instrument was misused (type clash, label mismatch, cardinality)."""


def _check_labels(
    name: str, label_names: Tuple[str, ...], labels: LabelValues
) -> None:
    if len(labels) != len(label_names):
        raise MetricsError(
            f"instrument {name!r} declares labels {label_names}, "
            f"got values {labels!r}"
        )


class Instrument:
    """Common state of one named instrument: labels, series, lock."""

    kind: str = "untyped"

    def __init__(
        self,
        name: str,
        description: str = "",
        label_names: Sequence[str] = (),
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> None:
        self.name = name
        self.description = description
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self.max_series = max_series
        self._lock = threading.Lock()

    def series(self) -> Dict[LabelValues, float]:
        """Every series' current value; histograms have none."""
        raise MetricsError(
            f"instrument {self.name!r} is a {self.kind}; read its buckets "
            f"through snapshot()"
        )

    def value(self, labels: LabelValues = ()) -> float:
        _check_labels(self.name, self.label_names, labels)
        return self.series().get(labels, 0.0)

    def _check_capacity(self, series: Mapping[LabelValues, object]) -> None:
        if len(series) >= self.max_series:
            raise MetricsError(
                f"instrument {self.name!r} exceeded its label cardinality "
                f"bound ({self.max_series} series); check the labels passed "
                f"by the caller"
            )


class _StoredInstrument(Instrument):
    """Counter and gauge: one stored value per series."""

    def __init__(
        self,
        name: str,
        description: str = "",
        label_names: Sequence[str] = (),
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> None:
        super().__init__(name, description, label_names, max_series)
        self._values: Dict[LabelValues, float] = {}

    def value(self, labels: LabelValues = ()) -> float:
        _check_labels(self.name, self.label_names, labels)
        with self._lock:
            return self._values.get(labels, 0.0)

    def series(self) -> Dict[LabelValues, float]:
        with self._lock:
            return dict(self._values)


class Counter(_StoredInstrument):
    """A monotonically increasing per-series total."""

    kind = "counter"

    def inc(self, amount: float = 1.0, labels: LabelValues = ()) -> None:
        if amount < 0:
            raise MetricsError(
                f"counter {self.name!r} cannot decrease (amount {amount})"
            )
        _check_labels(self.name, self.label_names, labels)
        with self._lock:
            values = self._values
            if labels not in values:
                self._check_capacity(values)
                values[labels] = 0.0
            values[labels] += amount

    def child(self, labels: LabelValues = ()) -> "BoundCounter":
        """A pre-bound series handle for hot paths (one dict lookup saved)."""
        _check_labels(self.name, self.label_names, labels)
        with self._lock:
            if labels not in self._values:
                self._check_capacity(self._values)
                self._values[labels] = 0.0
        return BoundCounter(self, labels)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())


class BoundCounter:
    """One counter series bound ahead of time; ``inc`` is the hot path."""

    __slots__ = ("_counter", "_labels")

    def __init__(self, counter: Counter, labels: LabelValues) -> None:
        self._counter = counter
        self._labels = labels

    def inc(self, amount: float = 1.0) -> None:
        counter = self._counter
        with counter._lock:
            counter._values[self._labels] += amount

    def value(self) -> float:
        return self._counter.value(self._labels)


class Gauge(_StoredInstrument):
    """A settable point-in-time value per series."""

    kind = "gauge"

    def set(self, value: float, labels: LabelValues = ()) -> None:
        _check_labels(self.name, self.label_names, labels)
        with self._lock:
            if labels not in self._values:
                self._check_capacity(self._values)
            self._values[labels] = value

    def inc(self, amount: float = 1.0, labels: LabelValues = ()) -> None:
        _check_labels(self.name, self.label_names, labels)
        with self._lock:
            if labels not in self._values:
                self._check_capacity(self._values)
                self._values[labels] = 0.0
            self._values[labels] += amount

    def dec(self, amount: float = 1.0, labels: LabelValues = ()) -> None:
        self.inc(-amount, labels)


class CallbackGauge(Instrument):
    """A gauge whose value is computed by a callable at collection time.

    This is how derived pipeline statistics (``composites_recognized`` as a
    sum over live detectors, ``instances_total`` from the CORE engine) are
    exposed without double bookkeeping on the hot path.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        callback: Callable[[], float],
        description: str = "",
    ) -> None:
        super().__init__(name, description, ())
        self._callback = callback

    def value(self, labels: LabelValues = ()) -> float:
        _check_labels(self.name, self.label_names, labels)
        return float(self._callback())

    def series(self) -> Dict[LabelValues, float]:
        return {(): self.value()}


class MultiCallbackGauge(Instrument):
    """A labelled gauge whose series are computed by one callable.

    The callback returns ``{label_values: value}`` for every live series
    at collection time — how per-participant worklist depths are exposed
    without a registry write on every offer/claim/complete.  The declared
    ``max_series`` bound applies to the callback's result.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        callback: Callable[[], Mapping[LabelValues, float]],
        description: str = "",
        label_names: Sequence[str] = (),
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> None:
        super().__init__(name, description, label_names, max_series)
        self._callback = callback

    def series(self) -> Dict[LabelValues, float]:
        computed = dict(self._callback())
        if len(computed) > self.max_series:
            raise MetricsError(
                f"multi-callback gauge {self.name!r} computed "
                f"{len(computed)} series, exceeding its cardinality bound "
                f"({self.max_series})"
            )
        return {labels: float(value) for labels, value in computed.items()}


class HistogramSeries:
    """Bucket counts, sum, and count for one label-value tuple."""

    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        #: Per-bucket (non-cumulative) observation counts; the final entry
        #: is the overflow bucket (observations above the last edge).
        self.bucket_counts: List[int] = [0] * (n_buckets + 1)
        self.total = 0.0
        self.count = 0


class Histogram(Instrument):
    """Fixed-bucket distribution.

    ``buckets`` are the upper edges, ascending; an observation ``v`` lands
    in the first bucket whose edge satisfies ``v <= edge`` (Prometheus
    ``le`` semantics), or in the implicit overflow (+Inf) bucket.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float],
        description: str = "",
        label_names: Sequence[str] = (),
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> None:
        super().__init__(name, description, label_names, max_series)
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise MetricsError(f"histogram {name!r} requires at least one bucket")
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise MetricsError(
                f"histogram {name!r} bucket edges must be strictly "
                f"ascending, got {edges}"
            )
        self.buckets = edges
        self._series: Dict[LabelValues, HistogramSeries] = {}

    def observe(self, value: float, labels: LabelValues = ()) -> None:
        _check_labels(self.name, self.label_names, labels)
        index = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(labels)
            if series is None:
                self._check_capacity(self._series)
                series = self._series[labels] = HistogramSeries(len(self.buckets))
            series.bucket_counts[index] += 1
            series.total += value
            series.count += 1

    def child(self, labels: LabelValues = ()) -> "BoundHistogram":
        """A pre-bound series handle for hot paths."""
        _check_labels(self.name, self.label_names, labels)
        with self._lock:
            if labels not in self._series:
                self._check_capacity(self._series)
                self._series[labels] = HistogramSeries(len(self.buckets))
        return BoundHistogram(self, labels)

    def snapshot(
        self, labels: LabelValues = ()
    ) -> Tuple[Tuple[int, ...], float, int]:
        """``(bucket_counts, sum, count)`` for one series (zeros if unseen)."""
        _check_labels(self.name, self.label_names, labels)
        with self._lock:
            series = self._series.get(labels)
            if series is None:
                return (0,) * (len(self.buckets) + 1), 0.0, 0
            return tuple(series.bucket_counts), series.total, series.count

    def cumulative(self, labels: LabelValues = ()) -> Tuple[int, ...]:
        """Prometheus-style cumulative ``le`` counts (including +Inf)."""
        counts, __, ___ = self.snapshot(labels)
        out: List[int] = []
        running = 0
        for count in counts:
            running += count
            out.append(running)
        return tuple(out)

    def series_labels(self) -> Tuple[LabelValues, ...]:
        with self._lock:
            return tuple(self._series)

    def add_counts(
        self,
        labels: LabelValues,
        bucket_counts: Sequence[int],
        total: float,
        count: int,
    ) -> None:
        """Fold pre-aggregated counts into one series (snapshot merging).

        ``bucket_counts`` must match this histogram's bucket layout
        (non-cumulative, with the trailing overflow bucket).
        """
        _check_labels(self.name, self.label_names, labels)
        if len(bucket_counts) != len(self.buckets) + 1:
            raise MetricsError(
                f"histogram {self.name!r} has {len(self.buckets) + 1} "
                f"buckets (incl. overflow), got {len(bucket_counts)} counts"
            )
        with self._lock:
            series = self._series.get(labels)
            if series is None:
                self._check_capacity(self._series)
                series = self._series[labels] = HistogramSeries(len(self.buckets))
            for index, increment in enumerate(bucket_counts):
                series.bucket_counts[index] += increment
            series.total += total
            series.count += count

    def quantile(self, q: float, labels: LabelValues = ()) -> float:
        """Estimate the *q*-quantile (0..1) from the bucket counts.

        Linear interpolation within the winning bucket, the standard
        fixed-bucket estimator; observations in the overflow bucket clamp
        to the last finite edge.  Returns 0.0 for an empty series.
        """
        counts, __, count = self.snapshot(labels)
        if not count:
            return 0.0
        rank = q * count
        running = 0.0
        lower = 0.0
        for edge, bucket in zip(self.buckets, counts):
            if bucket and running + bucket >= rank:
                fraction = (rank - running) / bucket
                return lower + (edge - lower) * min(1.0, max(0.0, fraction))
            running += bucket
            lower = edge
        return self.buckets[-1]


class BoundHistogram:
    """One histogram series bound ahead of time; ``observe`` is hot."""

    __slots__ = ("_histogram", "_series", "_buckets")

    def __init__(self, histogram: Histogram, labels: LabelValues) -> None:
        self._histogram = histogram
        self._series = histogram._series[labels]
        self._buckets = histogram.buckets

    def observe(self, value: float) -> None:
        index = bisect_left(self._buckets, value)
        series = self._series
        with self._histogram._lock:
            series.bucket_counts[index] += 1
            series.total += value
            series.count += 1

    def observe_relaxed(self, value: float) -> None:
        """Lock-free observe for series with a single writer thread.

        Each mutation below is one atomic bytecode-level operation under
        the GIL, so the series never corrupts; a concurrent snapshot may
        see a bucket count at most one observation ahead of ``count``,
        which monitoring reads tolerate.  Multi-writer series must use
        :meth:`observe`.
        """
        series = self._series
        series.bucket_counts[bisect_left(self._buckets, value)] += 1
        series.total += value
        series.count += 1


class MetricsRegistry:
    """A named collection of instruments with get-or-create semantics."""

    def __init__(self, max_series: int = DEFAULT_MAX_SERIES) -> None:
        self._instruments: Dict[str, Instrument] = {}
        self._max_series = max_series
        self._lock = threading.Lock()

    # -- registration ------------------------------------------------------

    def _get_or_create(self, name: str, factory: Callable[[], Instrument]) -> Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(
        self,
        name: str,
        description: str = "",
        label_names: Sequence[str] = (),
    ) -> Counter:
        instrument = self._get_or_create(
            name,
            lambda: Counter(name, description, label_names, self._max_series),
        )
        if not isinstance(instrument, Counter):
            raise MetricsError(
                f"instrument {name!r} is a {instrument.kind}, not a counter"
            )
        if instrument.label_names != tuple(label_names):
            raise MetricsError(
                f"counter {name!r} was registered with labels "
                f"{instrument.label_names}, got {tuple(label_names)}"
            )
        return instrument

    def gauge(
        self,
        name: str,
        description: str = "",
        label_names: Sequence[str] = (),
    ) -> Gauge:
        instrument = self._get_or_create(
            name,
            lambda: Gauge(name, description, label_names, self._max_series),
        )
        if not isinstance(instrument, Gauge):
            raise MetricsError(
                f"instrument {name!r} is a {instrument.kind}, not a gauge"
            )
        return instrument

    def callback_gauge(
        self,
        name: str,
        callback: Callable[[], float],
        description: str = "",
    ) -> CallbackGauge:
        """Register (or replace) a collection-time computed gauge."""
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None and not isinstance(existing, CallbackGauge):
                raise MetricsError(
                    f"instrument {name!r} is a {existing.kind}, not a "
                    f"callback gauge"
                )
            instrument = CallbackGauge(name, callback, description)
            self._instruments[name] = instrument
            return instrument

    def multi_callback_gauge(
        self,
        name: str,
        callback: Callable[[], Mapping[LabelValues, float]],
        description: str = "",
        label_names: Sequence[str] = (),
    ) -> MultiCallbackGauge:
        """Register (or replace) a labelled collection-time computed gauge."""
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None and not isinstance(
                existing, MultiCallbackGauge
            ):
                raise MetricsError(
                    f"instrument {name!r} is a {existing.kind}, not a "
                    f"multi-callback gauge"
                )
            instrument = MultiCallbackGauge(
                name, callback, description, label_names, self._max_series
            )
            self._instruments[name] = instrument
            return instrument

    def histogram(
        self,
        name: str,
        buckets: Sequence[float],
        description: str = "",
        label_names: Sequence[str] = (),
    ) -> Histogram:
        instrument = self._get_or_create(
            name,
            lambda: Histogram(
                name, buckets, description, label_names, self._max_series
            ),
        )
        if not isinstance(instrument, Histogram):
            raise MetricsError(
                f"instrument {name!r} is a {instrument.kind}, not a histogram"
            )
        return instrument

    # -- access ------------------------------------------------------------

    def get(self, name: str) -> Optional[Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._instruments))

    def value(self, name: str, labels: LabelValues = ()) -> float:
        """The current value of one counter/gauge series (0.0 if absent)."""
        instrument = self.get(name)
        return 0.0 if instrument is None else instrument.value(labels)

    def readings(self, name: str) -> List[Reading]:
        """What a rule or the telemetry source sees of one instrument.

        One ``(label, value)`` pair per series, in label order — the
        series' label values comma-joined, ``None`` for an unlabelled
        instrument's single series — then, for a labelled instrument,
        ``(None, total)``: the sum over its series.  So ``None`` always
        names the instrument's total.  Empty for an absent instrument or
        a histogram, which is read by quantile
        (:func:`~repro.observability.trace.stage_p95`).
        """
        instrument = self.get(name)
        if instrument is None or isinstance(instrument, Histogram):
            return []
        series = sorted(instrument.series().items())
        total = sum(value for __, value in series)
        if not instrument.label_names:
            return [(None, total)]
        readings: List[Reading] = [
            (",".join(labels), value) for labels, value in series
        ]
        readings.append((None, total))
        return readings

    def unregister(self, name: str) -> None:
        with self._lock:
            self._instruments.pop(name, None)

    def reset(self) -> None:
        """Drop every instrument (tests and long-lived processes)."""
        with self._lock:
            self._instruments.clear()

    # -- snapshot ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A lossless snapshot of every instrument, values as they are.

        Per instrument: kind, description, label names and ``series``,
        ``{label tuple: value}`` (a histogram adds its bucket edges and
        maps to ``(bucket counts, sum, count)``), in label order so the
        encoded bytes are a function of the contents.  Nothing aliases
        live state: serial shards hand it over without a pipe.  Callback
        gauges are captured at their collection-time values and merge as
        plain gauges — the callable cannot cross a process boundary.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for name in self.names():
            instrument = self.get(name)
            if instrument is None:  # pragma: no cover - racy unregister
                continue
            entry: Dict[str, Any] = {
                "kind": instrument.kind,
                "description": instrument.description,
                "label_names": instrument.label_names,
            }
            if isinstance(instrument, Histogram):
                entry["buckets"] = instrument.buckets
                entry["series"] = {
                    labels: instrument.snapshot(labels)
                    for labels in sorted(instrument.series_labels())
                }
            else:
                entry["series"] = dict(sorted(instrument.series().items()))
            out[name] = entry
        return out

    def merge(
        self,
        snapshot: Mapping[str, Mapping[str, Any]],
        shard: Optional[str] = None,
    ) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters accumulate, gauges overwrite, histogram bucket counts
        add.  With ``shard`` set, every instrument gains a leading
        ``shard`` label so series from different shards stay distinct —
        the federation-aggregation path.  Bucket-layout disagreements
        raise :class:`MetricsError` rather than merging garbage.
        """
        prefix_names: Tuple[str, ...] = ("shard",) if shard is not None else ()
        prefix: LabelValues = (shard,) if shard is not None else ()
        for name, entry in snapshot.items():
            kind = entry["kind"]
            if kind not in ("counter", "gauge", "histogram"):
                raise MetricsError(
                    f"snapshot entry {name!r} has unknown kind {kind!r}"
                )
            description = entry["description"]
            label_names = prefix_names + entry["label_names"]
            series: Mapping[LabelValues, Any] = entry["series"]
            if kind == "counter":
                counter = self.counter(name, description, label_names)
                for labels, value in series.items():
                    counter.inc(value, prefix + labels)
            elif kind == "gauge":
                gauge = self.gauge(name, description, label_names)
                for labels, value in series.items():
                    gauge.set(value, prefix + labels)
            else:
                buckets = entry["buckets"]
                histogram = self.histogram(
                    name, buckets, description, label_names
                )
                if histogram.buckets != buckets:
                    raise MetricsError(
                        f"histogram {name!r} bucket layout mismatch on "
                        f"merge: registry has {histogram.buckets}, snapshot "
                        f"has {buckets}"
                    )
                for labels, (counts, total, count) in series.items():
                    histogram.add_counts(prefix + labels, counts, total, count)

    def render_text(self) -> str:
        """Prometheus-style text exposition (counters, gauges, histograms)."""
        lines: List[str] = []
        for name in self.names():
            instrument = self.get(name)
            if instrument is None:  # pragma: no cover - racy unregister
                continue
            if instrument.description:
                lines.append(f"# HELP {name} {instrument.description}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            if isinstance(instrument, Histogram):
                for labels in instrument.series_labels():
                    cumulative = instrument.cumulative(labels)
                    __, total, count = instrument.snapshot(labels)
                    base = _render_labels(instrument.label_names, labels)
                    for edge, running in zip(
                        instrument.buckets, cumulative
                    ):
                        extra = _render_labels(
                            instrument.label_names + ("le",),
                            labels + (f"{edge:g}",),
                        )
                        lines.append(f"{name}_bucket{extra} {running}")
                    extra = _render_labels(
                        instrument.label_names + ("le",), labels + ("+Inf",)
                    )
                    lines.append(f"{name}_bucket{extra} {cumulative[-1]}")
                    lines.append(f"{name}_sum{base} {total:g}")
                    lines.append(f"{name}_count{base} {count}")
            else:
                for labels, value in sorted(instrument.series().items()):
                    rendered = _render_labels(instrument.label_names, labels)
                    lines.append(f"{name}{rendered} {value:g}")
        return "\n".join(lines)


def _render_labels(names: Tuple[str, ...], values: LabelValues) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{label}="{value}"' for label, value in zip(names, values)
    )
    return "{" + pairs + "}"
