"""Span tracing from outside the program.

A ``Tracer`` replaces public functions of each layer with wrappers that record
one span per call: name, start, end and the span that was open when the call
began (its parent). Each name is patched where its caller looks it up, because
a module that did ``from .core import route`` holds its own reference. Spans
stay in memory; ``per_layer`` derives self time and percentiles from the span
tree, and ``dump`` writes the spans out.
"""

from __future__ import annotations

import json
from time import perf_counter

import infersub.broker as broker
import infersub.cli as cli
import infersub.placement as placement
import infersub.scenario as scenario
import infersub.simulator as simulator

# (span name, owner, attribute): owner is the module or class where the
# caller looks the attribute up.
PATCHES = (
    ("scenario.loads_scenario", scenario, "loads_scenario"),
    ("core.route", simulator, "route"),
    ("core.route", placement, "route"),
    ("placement.place_upstream", broker, "place_upstream"),
    ("placement.merge_shared_prefix", broker, "merge_shared_prefix"),
    ("placement.replan", broker, "replan"),
    ("placement.place_oracle", cli, "place_oracle"),
    ("placement.feasible", placement, "feasible"),
    ("broker.subscribe", broker.Broker, "subscribe"),
    ("broker.on_publish", broker.Broker, "on_publish"),
    ("broker.on_ack", broker.Broker, "on_ack"),
    ("broker.consume_buffered", broker.Broker, "consume_buffered"),
    ("broker.on_node_failure", broker.Broker, "on_node_failure"),
    ("operators.apply_mapping", simulator, "apply_mapping"),
    ("operators.apply_mapping", broker, "apply_mapping"),
    ("operators.funnel_offer", simulator, "funnel_offer"),
    ("simulator.simulate", simulator, "simulate"),
    ("metrics.report", simulator._World, "report"),
    ("metrics.emit", cli, "emit"),
)

ROOT = "cli.main"

# name -> the statistics reported for it; every span name that is patched
# reports self_s, so the self times add up to the root span.
REPORTED = {
    ROOT: ("self_s",),
    "scenario.loads_scenario": ("self_s",),
    "core.route": ("calls", "self_s", "p99_us"),
    "placement.place_upstream": ("calls", "self_s", "p50_ms", "p99_ms"),
    "placement.merge_shared_prefix": ("calls", "self_s"),
    "placement.place_oracle": ("calls", "self_s", "p50_ms", "p99_ms"),
    "placement.feasible": ("calls", "self_s"),
    "placement.replan": ("calls", "self_s"),
    "broker.subscribe": ("calls", "self_s", "p50_ms", "p99_ms"),
    "broker.on_publish": ("calls", "self_s", "p50_us", "p99_us"),
    "broker.on_ack": ("calls", "self_s"),
    "broker.consume_buffered": ("calls", "self_s"),
    "broker.on_node_failure": ("calls", "self_s"),
    "operators.apply_mapping": ("calls", "self_s"),
    "operators.funnel_offer": ("calls", "self_s"),
    "simulator.simulate": ("self_s",),
    "metrics.report": ("self_s",),
    "metrics.emit": ("self_s",),
}

# Metrics computed from several spans or from the run itself.
DERIVED = (
    ("core.route.repeat_share", "share"),
    ("placement.feasible.per_oracle", "count"),
    ("simulator.us_per_delivery", "us"),
    ("tracing.accounted_share", "share"),
    ("tracing.overhead_share", "share"),
)

_UNITS = {"calls": "count", "self_s": "s", "p50_ms": "ms", "p99_ms": "ms",
          "p50_us": "us", "p99_us": "us"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {f"{name}.{stat}": _UNITS[stat]
           for name, stats in REPORTED.items() for stat in stats}
    out.update(DERIVED)
    return out


def _topology_state(t) -> tuple:
    down_links = frozenset(k for k, ln in t.links.items() if ln.state != "up")
    return (t.down_nodes, down_links)


class Tracer:
    """Records spans of the patched functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.route_queries: list[tuple] = []  # (topology state, a, b) per call
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._states: dict[int, tuple[object, tuple]] = {}

    def reset(self) -> None:
        self.spans.clear()
        self.route_queries.clear()
        self._states.clear()

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _wrap_route(self, fn):
        traced = self.wrap("core.route", fn)

        def route(t, a, b):
            got = self._states.get(id(t))
            if got is None or got[0] is not t:
                got = (t, _topology_state(t))
                self._states[id(t)] = got
            self.route_queries.append((got[1], a, b))
            return traced(t, a, b)

        return route

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, owner, attr in PATCHES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if name == "core.route":
                setattr(owner, attr, self._wrap_route(original))
            else:
                setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def call(self, fn, *args):
        """Run fn(*args) as the root span."""
        return self.wrap(ROOT, fn)(*args)

    def per_layer(self, delivered: int, wall_s: float) -> dict[str, float]:
        """Per-layer numbers of the spans recorded since the last reset.

        delivered is the run's delivery count and wall_s its traced run time
        as the caller measured it around ``call``.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        durs: dict[str, list[float]] = {}
        selfs: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(spans):
            durs.setdefault(name, []).append(end - start)
            selfs[name] = selfs.get(name, 0.0) + (end - start - child[i])
        out: dict[str, float] = {}
        for name, stats in REPORTED.items():
            d = sorted(durs.get(name, []))
            for stat in stats:
                if stat == "calls":
                    value = float(len(d))
                elif stat == "self_s":
                    value = selfs.get(name, 0.0)
                else:
                    q = int(stat[1:3])
                    scale = 1e3 if stat.endswith("_ms") else 1e6
                    value = _nearest_rank(d, q) * scale
                out[f"{name}.{stat}"] = value

        seen: set[tuple] = set()
        repeats = 0
        for q in self.route_queries:
            repeats += q in seen
            seen.add(q)
        out["core.route.repeat_share"] = (
            repeats / len(self.route_queries) if self.route_queries else 0.0
        )

        oracle_feasible = 0
        for name, _, _, parent in spans:
            if name != "placement.feasible":
                continue
            while parent >= 0 and spans[parent][0] != "placement.place_oracle":
                parent = spans[parent][3]
            oracle_feasible += parent >= 0
        oracles = len(durs.get("placement.place_oracle", []))
        out["placement.feasible.per_oracle"] = (
            oracle_feasible / oracles if oracles else 0.0
        )

        simulate = sum(durs.get("simulator.simulate", []))
        out["simulator.us_per_delivery"] = (
            simulate * 1e6 / delivered if delivered else 0.0
        )
        out["tracing.accounted_share"] = sum(selfs.values()) / wall_s
        return out

    def dump(self, path) -> None:
        """Write the recorded spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _nearest_rank(sorted_values: list[float], q: int) -> float:
    if not sorted_values:
        return 0.0
    rank = -((-q * len(sorted_values)) // 100)
    return sorted_values[max(rank, 1) - 1]
