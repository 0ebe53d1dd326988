"""Process-wide metrics: counters, gauges, histograms, text exposition.

One :class:`MetricsRegistry` (the module-level :data:`METRICS`) replaces
the ad-hoc counter plumbing that grew across
:mod:`repro.engine.cache`, :mod:`repro.sat.incremental` and
:mod:`repro.runtime.budget`:

* **instruments** — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram`, registered once by name and safe to pre-bind at
  import time (an instrument increment is a lock + an integer add, cheap
  enough for per-SAT-call paths);
* **labels** — an instrument registered with ``labelnames`` becomes a
  family; ``family.labels(kind="model_set")`` returns (and memoizes) the
  child instrument for that label set;
* **collectors** — subsystems that already keep their own counters (the
  engine cache, the solver pool) register a callback returning
  ``name -> value`` pairs; collectors are polled at exposition/snapshot
  time, so the hot paths of those subsystems pay nothing extra;
* **exposition** — :meth:`MetricsRegistry.expose` renders the
  Prometheus text format (``# HELP`` / ``# TYPE`` / sample lines),
  :meth:`MetricsRegistry.snapshot` the same data as a flat dict.

This module is intentionally at the very bottom of the layer graph: it
imports nothing from :mod:`repro`, so every subsystem (including
:mod:`repro.runtime`) can use it without cycles.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Default histogram bucket upper bounds (milliseconds-flavoured).
DEFAULT_BUCKETS = (1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0)


def _validate_name(name: str) -> str:
    if not name or not all(
        ch.isalnum() or ch in "_:" for ch in name
    ) or name[0].isdigit():
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _render_labels(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + inner + "}"


class Counter:
    """A monotone counter (``set`` exists for reset/migration paths)."""

    kind = "counter"

    __slots__ = ("name", "help", "labels_kv", "_value", "_lock")

    def __init__(
        self,
        name: str,
        help: str = "",
        labels_kv: Tuple[Tuple[str, str], ...] = (),
    ):
        self.name = name
        self.help = help
        self.labels_kv = labels_kv
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    def set(self, value: int) -> None:
        """Overwrite the value (counter-backed attribute migration and
        test resets; Prometheus-style use should only ``inc``)."""
        with self._lock:
            self._value = value

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def reset(self) -> None:
        self.set(0)

    def samples(self) -> List[Tuple[str, str, float]]:
        """``(name, rendered-labels, value)`` sample rows."""
        return [(self.name, _render_labels(self.labels_kv), self.value)]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, value={self.value})"


class Gauge(Counter):
    """A value that can go up and down."""

    kind = "gauge"

    __slots__ = ()

    def dec(self, amount: int = 1) -> None:
        self.inc(-amount)

    def set_max(self, value: int) -> None:
        """Raise the value to ``value`` if that is larger: one critical
        section, so a concurrent smaller value never overwrites it."""
        with self._lock:
            if value > self._value:
                self._value = value


class Histogram:
    """A fixed-bucket histogram (cumulative buckets, sum and count)."""

    kind = "histogram"

    __slots__ = (
        "name", "help", "labels_kv", "buckets", "_counts", "_sum",
        "_count", "_lock",
    )

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        labels_kv: Tuple[Tuple[str, str], ...] = (),
    ):
        self.name = name
        self.help = help
        self.labels_kv = labels_kv
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[index] += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * len(self.buckets)
            self._sum = 0.0
            self._count = 0

    def samples(self) -> List[Tuple[str, str, float]]:
        with self._lock:
            counts = list(self._counts)
            total, amount = self._count, self._sum
        rows: List[Tuple[str, str, float]] = []
        for bound, count in zip(self.buckets, counts):
            labels = self.labels_kv + (("le", f"{bound:g}"),)
            rows.append(
                (f"{self.name}_bucket", _render_labels(labels), count)
            )
        inf_labels = self.labels_kv + (("le", "+Inf"),)
        rows.append((f"{self.name}_bucket", _render_labels(inf_labels), total))
        base = _render_labels(self.labels_kv)
        rows.append((f"{self.name}_sum", base, amount))
        rows.append((f"{self.name}_count", base, total))
        return rows

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class _Family:
    """A labelled instrument family; children are memoized per label set."""

    __slots__ = ("name", "help", "labelnames", "_factory", "_children",
                 "_lock", "kind")

    def __init__(self, name, help, labelnames, factory, kind):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._factory = factory
        self._children: Dict[Tuple[str, ...], Any] = {}
        self._lock = threading.Lock()
        self.kind = kind

    def labels(self, **kv: str):
        if set(kv) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(kv))}"
            )
        key = tuple(str(kv[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                labels_kv = tuple(zip(self.labelnames, key))
                child = self._factory(self.name, self.help, labels_kv)
                self._children[key] = child
            return child

    def reset(self) -> None:
        with self._lock:
            children = list(self._children.values())
        for child in children:
            child.reset()

    def samples(self) -> List[Tuple[str, str, float]]:
        with self._lock:
            children = [
                self._children[key] for key in sorted(self._children)
            ]
        rows: List[Tuple[str, str, float]] = []
        for child in children:
            rows.extend(child.samples())
        return rows


class MetricsRegistry:
    """The process-wide instrument store.

    Registration is idempotent: requesting an existing name returns the
    existing instrument (a kind or label mismatch raises instead, so two
    subsystems cannot silently fight over one name).
    """

    def __init__(self) -> None:
        self._instruments: "Dict[str, Any]" = {}
        self._collectors: Dict[str, Callable[[], Dict[str, float]]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _register(self, name, help, labelnames, factory, kind):
        _validate_name(name)
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, requested {kind}"
                    )
                if labelnames:
                    if (
                        not isinstance(existing, _Family)
                        or existing.labelnames != tuple(labelnames)
                    ):
                        raise ValueError(
                            f"metric {name!r} label mismatch"
                        )
                elif isinstance(existing, _Family):
                    raise ValueError(f"metric {name!r} label mismatch")
                return existing
            if labelnames:
                instrument = _Family(name, help, labelnames, factory, kind)
            else:
                instrument = factory(name, help, ())
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "",
        labelnames: Iterable[str] = (),
    ):
        """Register (or fetch) a counter / counter family."""
        return self._register(
            name, help, tuple(labelnames),
            lambda n, h, kv: Counter(n, h, labels_kv=kv), "counter",
        )

    def gauge(
        self, name: str, help: str = "",
        labelnames: Iterable[str] = (),
    ):
        """Register (or fetch) a gauge / gauge family."""
        return self._register(
            name, help, tuple(labelnames),
            lambda n, h, kv: Gauge(n, h, labels_kv=kv), "gauge",
        )

    def histogram(
        self, name: str, help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        labelnames: Iterable[str] = (),
    ):
        """Register (or fetch) a histogram / histogram family."""
        bounds = tuple(buckets)
        return self._register(
            name, help, tuple(labelnames),
            lambda n, h, kv: Histogram(n, h, buckets=bounds, labels_kv=kv),
            "histogram",
        )

    def get(self, name: str) -> Optional[Any]:
        """The registered instrument, or ``None``."""
        with self._lock:
            return self._instruments.get(name)

    # ------------------------------------------------------------------
    def register_collector(
        self, name: str, collect: Callable[[], Dict[str, float]]
    ) -> None:
        """Register a pull-style source: ``collect()`` returns
        ``metric-name -> value`` gauges polled at exposition time.
        Re-registering a name replaces the callback (module reloads)."""
        with self._lock:
            self._collectors[name] = collect

    def _collected(self) -> List[Tuple[str, str, float]]:
        with self._lock:
            collectors = list(self._collectors.items())
        rows: List[Tuple[str, str, float]] = []
        for _, collect in sorted(collectors):
            try:
                values = collect()
            except Exception:  # a dying subsystem must not kill exposition
                continue
            for name, value in sorted(values.items()):
                rows.append((name, "", float(value)))
        return rows

    # ------------------------------------------------------------------
    def expose(self) -> str:
        """The Prometheus text exposition of every instrument and
        collector (``# HELP`` / ``# TYPE`` headers + sample lines)."""
        with self._lock:
            instruments = [
                self._instruments[name]
                for name in sorted(self._instruments)
            ]
        lines: List[str] = []
        for instrument in instruments:
            if instrument.help:
                lines.append(f"# HELP {instrument.name} {instrument.help}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            for name, labels, value in instrument.samples():
                lines.append(f"{name}{labels} {value:g}")
        for name, labels, value in self._collected():
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name}{labels} {value:g}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, float]:
        """Every sample as a flat ``name{labels} -> value`` dict."""
        with self._lock:
            instruments = [
                self._instruments[name]
                for name in sorted(self._instruments)
            ]
        flat: Dict[str, float] = {}
        for instrument in instruments:
            for name, labels, value in instrument.samples():
                flat[f"{name}{labels}"] = value
        for name, labels, value in self._collected():
            flat[f"{name}{labels}"] = value
        return flat

    def reset(self) -> None:
        """Zero every registered instrument (test isolation; collectors
        are pull-style and are not touched)."""
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            instrument.reset()


#: The process-wide registry.
METRICS = MetricsRegistry()
