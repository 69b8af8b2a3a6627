"""Low-overhead metrics: counters, gauges, log-scale histograms, a registry.

Everything here is plain Python with no hot-path allocation beyond what
the caller already does: a counter increment is one integer add on an
attribute, a histogram observation is one :func:`bisect.bisect_left`
over a shared tuple of bucket bounds plus two adds.  Expensive work —
callback gauges, percentile estimation, Prometheus text rendering —
happens only at scrape/snapshot time.

Metric identity is ``(name, labels)`` where ``labels`` is a frozen,
sorted tuple of ``(key, value)`` pairs, matching the Prometheus data
model: the same metric name with different label sets yields distinct
series that render under one ``# HELP`` / ``# TYPE`` header.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

LabelItems = Tuple[Tuple[str, str], ...]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram bucket upper bounds: log-scale (powers of two) from
#: 1 microsecond to ~134 seconds when values are in milliseconds.  The
#: 28 finite buckets give <= 2x relative error on any latency the stack
#: can plausibly produce; anything beyond lands in the overflow bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(0.001 * (2.0**i) for i in range(28))

#: Bucket bounds for *size* histograms (delta sizes, window occupancy):
#: powers of two from 1 to ~1M items.
SIZE_BUCKETS: Tuple[float, ...] = tuple(float(2**i) for i in range(21))


def _freeze_labels(labels: Optional[Mapping[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(items: LabelItems) -> str:
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_number(value: float) -> str:
    """Render a sample value the way Prometheus text format expects."""
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing integer, pushed or pulled.

    Push style: ``inc`` is the entire hot-path API — one attribute add.
    Pull style: constructed with ``fn``, the counter reads a monotonic
    value the layer already maintains (e.g. an entry of a ``stats``
    dict) at scrape time, so instrumenting an existing counter costs the
    hot path nothing at all.
    """

    __slots__ = ("name", "help", "labels", "_value", "_fn")

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labels: LabelItems = (),
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.help = help_text
        self.labels = labels
        self._value: int = 0
        self._fn = fn

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1); invalid on a callback counter."""
        if self._fn is not None:
            raise ValueError(f"counter {self.name!r} is callback-backed")
        self._value += amount

    @property
    def value(self) -> float:
        """Current value; calls the callback for pull-based counters."""
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Gauge:
    """A point-in-time value, either pushed (``set``) or pulled (callback).

    A callback gauge never touches the hot path: the layer hands the
    registry a closure over state it already maintains (``len(pending)``,
    ``history.journal_len``, ...) and the value is computed only when a
    scrape or snapshot asks for it.
    """

    __slots__ = ("name", "help", "labels", "_value", "_fn")

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labels: LabelItems = (),
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.help = help_text
        self.labels = labels
        self._value: float = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        """Set the gauge (push style); invalid on a callback gauge."""
        if self._fn is not None:
            raise ValueError(f"gauge {self.name!r} is callback-backed")
        self._value = value

    def add(self, amount: float) -> None:
        """Adjust the gauge by ``amount``; invalid on a callback gauge."""
        if self._fn is not None:
            raise ValueError(f"gauge {self.name!r} is callback-backed")
        self._value += amount

    @property
    def value(self) -> float:
        """Current value; calls the callback for pull-based gauges."""
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Histogram:
    """Fixed-bucket log-scale histogram with cheap percentile estimates.

    Observations land in the first bucket whose upper bound is >= the
    value (one bisect over a shared bounds tuple); values above the last
    bound land in the overflow bucket.  ``percentile`` walks the
    cumulative counts and reports the matched bucket's upper bound —
    i.e. a conservative (over-) estimate with <= 2x relative error given
    the power-of-two default bounds — clamped to the observed
    ``[min, max]``, so no quantile ever exceeds the largest sample (the
    overflow bucket reports the exact maximum).
    """

    __slots__ = (
        "name",
        "help",
        "labels",
        "bounds",
        "counts",
        "overflow",
        "total",
        "sum",
        "min",
        "max",
    )

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labels: LabelItems = (),
        bounds: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram bounds must be sorted and distinct")
        self.name = name
        self.help = help_text
        self.labels = labels
        self.bounds = bounds
        self.counts: List[int] = [0] * len(bounds)
        self.overflow: int = 0
        self.total: int = 0
        self.sum: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float, weight: int = 1) -> None:
        """Record one sample (hot path: bisect + a handful of adds).

        ``weight`` counts the sample ``weight`` times — the hook for
        hot-path callers that observe only every Nth event and want the
        histogram to keep estimating the full population (counts, sum and
        percentiles stay approximately unbiased; min/max see only the
        sampled values).
        """
        idx = bisect_left(self.bounds, value)
        if idx == len(self.bounds):
            self.overflow += weight
        else:
            self.counts[idx] += weight
        self.total += weight
        self.sum += value * weight
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def percentile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (``0 < q <= 1``); None when empty."""
        if self.total == 0:
            return None
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        # Rank of the target sample, 1-based ceiling.
        rank = max(1, int(q * self.total + 0.999999))
        assert self.min is not None and self.max is not None
        seen = 0
        for bound, count in zip(self.bounds, self.counts):
            seen += count
            if seen >= rank:
                return min(max(bound, self.min), self.max)
        # Landed in the overflow bucket: the exact max is the best bound.
        return self.max

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s samples into this histogram (same bounds)."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.overflow += other.overflow
        self.total += other.total
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def summary(self) -> Dict[str, Optional[float]]:
        """count/sum/min/max/p50/p99/p999 in one dict (snapshot helper)."""
        return {
            "count": float(self.total),
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
            "p999": self.percentile(0.999),
        }


class MetricsRegistry:
    """All metrics of one process, keyed by ``(name, labels)``.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call registers the series, later calls with the same identity return
    the same object, so layers can grab their instruments eagerly at
    construction and keep bare attribute references for the hot path.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}

    # ------------------------------------------------------------ creation
    def counter(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Mapping[str, str]] = None,
        fn: Optional[Callable[[], float]] = None,
    ) -> Counter:
        """Get or create the counter ``(name, labels)``.

        Like :meth:`gauge`, re-registering with a callback re-binds the
        series to the new component instance.
        """
        key = (self._check_name(name), _freeze_labels(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = Counter(name, help_text, key[1], fn=fn)
            self._counters[key] = metric
        elif fn is not None:
            metric._fn = fn
        return metric

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Mapping[str, str]] = None,
        fn: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        """Get or create the gauge ``(name, labels)``.

        Re-registering an existing series with a callback replaces its
        callback — a restarted component re-binds the gauge to its new
        live state instead of leaving it pointing at the dead instance.
        """
        key = (self._check_name(name), _freeze_labels(labels))
        metric = self._gauges.get(key)
        if metric is None:
            metric = Gauge(name, help_text, key[1], fn=fn)
            self._gauges[key] = metric
        elif fn is not None:
            metric._fn = fn
        return metric

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[Mapping[str, str]] = None,
        bounds: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create the histogram ``(name, labels)``."""
        key = (self._check_name(name), _freeze_labels(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = Histogram(name, help_text, key[1], bounds=bounds)
            self._histograms[key] = metric
        return metric

    @staticmethod
    def _check_name(name: str) -> str:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        return name

    # ------------------------------------------------------------- export
    def render_prometheus(self) -> str:
        """Render every series in the Prometheus text exposition format."""
        lines: List[str] = []
        for kind, metrics in (
            ("counter", self._counters),
            ("gauge", self._gauges),
        ):
            last_name = None
            for (name, _), metric in sorted(metrics.items()):
                if name != last_name:
                    if metric.help:
                        lines.append(f"# HELP {name} {metric.help}")
                    lines.append(f"# TYPE {name} {kind}")
                    last_name = name
                labels = _render_labels(metric.labels)
                lines.append(f"{name}{labels} {_format_number(metric.value)}")
        last_name = None
        for (name, _), hist in sorted(self._histograms.items()):
            if name != last_name:
                if hist.help:
                    lines.append(f"# HELP {name} {hist.help}")
                lines.append(f"# TYPE {name} histogram")
                last_name = name
            lines.extend(self._render_histogram(hist))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _render_histogram(hist: Histogram) -> Iterable[str]:
        cumulative = 0
        base = list(hist.labels)
        for bound, count in zip(hist.bounds, hist.counts):
            cumulative += count
            if count == 0:
                # Elide empty buckets: the cumulative `le` series stays
                # valid with any subset of bounds present (+Inf is always
                # emitted) and the payload shrinks ~10x for the typical
                # tightly-clustered latency distribution.
                continue
            items = tuple(base + [("le", _format_number(bound))])
            lines_labels = _render_labels(tuple(sorted(items)))
            yield f"{hist.name}_bucket{lines_labels} {cumulative}"
        items = tuple(base + [("le", "+Inf")])
        lines_labels = _render_labels(tuple(sorted(items)))
        yield f"{hist.name}_bucket{lines_labels} {hist.total}"
        plain = _render_labels(hist.labels)
        yield f"{hist.name}_sum{plain} {_format_number(hist.sum)}"
        yield f"{hist.name}_count{plain} {hist.total}"

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable snapshot of every series."""
        counters = {
            f"{name}{_render_labels(lbl)}": metric.value
            for (name, lbl), metric in sorted(self._counters.items())
        }
        gauges = {
            f"{name}{_render_labels(lbl)}": metric.value
            for (name, lbl), metric in sorted(self._gauges.items())
        }
        histograms = {}
        for (name, lbl), hist in sorted(self._histograms.items()):
            histograms[f"{name}{_render_labels(lbl)}"] = hist.summary()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def dump_json(self, path: str) -> None:
        """Write :meth:`snapshot` to ``path`` as pretty-printed JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
