"""Out-of-program span tracing for the traced benchmark run.

The benchmark never edits code under ``src/``.  It times each layer from
outside: :meth:`Tracer.install` swaps a layer's public functions for
thin wrappers, and :meth:`Tracer.uninstall` puts the originals back.
Spans nest strictly (the simulator is single threaded), so a stack is
enough to compute each span's self time: its duration minus the time its
child spans cover.

Generator functions (simulated processes, RPC handlers) are wrapped with
a proxy generator that records one span per resume, because that is when
their code runs.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

clock = time.perf_counter

#: Layers in report order.  ``sim`` is the event loop; the rest are the
#: repository's modules named in TARGETS.
LAYERS = (
    "sim", "routing", "rate_engine", "fairshare", "simulator", "flowserver",
    "cost", "stats", "sdn", "fs", "rpc", "kvstore",
)

#: (layer, module, class, functions): every public function a layer is
#: entered through.  A class's methods are wrapped on the class itself,
#: so instances built afterwards, and the bound methods they hand out as
#: callbacks, go through the wrapper.  With no class, the module function
#: is rebound in every ``repro`` module that imported it by name.  A
#: target missing from the code is skipped and reported.
TARGETS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine", "EventLoop", ("step",)),
    ("routing", "repro.net.routing", "RoutingTable", ("paths",)),
    ("rate_engine", "repro.net.rate_engine", "IncrementalRateEngine",
     ("recompute", "earliest_completion", "add_flow", "remove_flow",
      "reroute_flow", "set_demand")),
    ("fairshare", "repro.net.fairshare", "",
     ("max_min_fair_rates", "single_link_fair_allocation",
      "bottleneck_share_on_path")),
    # ``_on_completion_tick`` is the simulator's completion event; the
    # progress accounting every flow finish pays for runs inside it.
    ("simulator", "repro.net.simulator", "FlowNetwork",
     ("start_flow", "cancel_flow", "reroute_flow", "_on_completion_tick",
      "snapshot_progress", "link_utilization_bps", "flows_on_link")),
    # ``_on_flow_removed`` is the Flowserver's FlowRemoved listener.
    ("flowserver", "repro.core.flowserver", "Flowserver",
     ("select", "select_path_only", "plan_replication_fanout",
      "_on_flow_removed")),
    ("cost", "repro.core.selection", "",
     ("score_candidate_paths", "commit_choice", "select_replica_and_path")),
    ("cost", "repro.core.cost", "",
     ("flow_cost", "estimate_path_share", "new_bandwidth_of_existing")),
    ("stats", "repro.core.stats", "FlowStatsCollector", ("poll_once",)),
    ("sdn", "repro.sdn.controller", "Controller",
     ("query_flow_stats", "query_flow_stats_for", "query_port_stats",
      "start_transfer", "abort_transfer", "reroute_transfer",
      "install_path", "uninstall_path")),
    ("sdn", "repro.net.switch", "Switch",
     ("flow_stats", "flow_stats_for", "port_stats")),
    ("fs", "repro.fs.client", "MayflowerClient",
     ("create", "delete", "move", "stat", "append", "read")),
    ("fs", "repro.fs.nameserver", "Nameserver",
     ("create", "install", "lookup", "exists", "delete", "move",
      "record_append", "update_replicas", "list_files")),
    ("fs", "repro.fs.dataserver", "Dataserver",
     ("create_file", "delete_file", "has_file", "rename_file",
      "file_size", "append", "replica_append", "push_data", "commit_append",
      "relay_append", "serve_read", "stat")),
    ("rpc", "repro.rpc.fabric", "RpcFabric", ("call", "invoke")),
    ("kvstore", "repro.kvstore.db", "KVStore",
     ("put", "get", "delete", "scan", "flush", "compact")),
)

#: Verify the incremental rate engine against a batch solve after this
#: many events of a batch, then each time the count doubles, and sample
#: the event heap every PENDING_EVERY events.
FIRST_VERIFY = 16
PENDING_EVERY = 64


class _Open:
    __slots__ = ("name", "layer", "start", "index", "child_s")

    def __init__(self, name: str, layer: str, start: float, index: int) -> None:
        self.name = name
        self.layer = layer
        self.start = start
        self.index = index
        self.child_s = 0.0


class Tracer:
    """Span recorder, the wrappers that feed it, and per-batch counters."""

    def __init__(self) -> None:
        self._origin = clock()
        #: Finished spans: (name, start, end, parent index, op id), with
        #: start and end in host seconds since the tracer was created.
        self.spans: List[Tuple[str, float, float, int, Optional[str]]] = []
        #: Per layer: host seconds inside its outermost spans (busy) and
        #: inside its spans minus their children (self).
        self.busy_s = {name: 0.0 for name in LAYERS}
        self.self_s = {name: 0.0 for name in LAYERS}
        #: Per wrapped function: calls (a generator function counts once
        #: per call, not per resume) and inclusive host seconds.
        self.calls: Dict[str, int] = {}
        self.name_s: Dict[str, float] = {}
        self.layer_of: Dict[str, str] = {}
        #: Inclusive durations of ``Flowserver.select`` calls.
        self.select_s: List[float] = []
        #: Targets that could not be found (renamed or removed code).
        self.missing: List[str] = []
        #: Operation id the running code works for, when known.
        self.op: Optional[str] = None
        #: While paused (set-up, checks, teardown) wrappers only forward.
        self.paused = True
        self.counters = {
            "events": 0, "pending_peak": 0, "active_flows_peak": 0,
            "distinct_pairs": 0, "repeat_pair_calls": 0, "solves": 0,
            "dirty_flows": 0, "link_visits": 0, "full_link_visits": 0,
            "cache_hits": 0, "cache_misses": 0, "rpc_failed": 0,
        }
        #: Mid-batch rate-engine self-checks: how many ran, what they
        #: found, and their host time (excluded from the overhead ratio).
        self.verifications = 0
        self.problems: List[str] = []
        self.check_s = 0.0
        self.batch_check_start = 0.0
        self._pairs: set = set()
        self._batch_events = 0
        self._next_verify = FIRST_VERIFY
        self._networks: List[Any] = []
        self._flowservers: List[Any] = []
        self._stack: List[_Open] = []
        self._depth = {name: 0 for name in LAYERS}
        self._patches: List[Tuple[Any, str, Any]] = []
        self._subscription: Any = None

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def _enter(self, name: str, layer: str) -> None:
        parent = self._stack[-1].index if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append(_Open(name, layer, clock(), len(self.spans) - 1))
        self._depth[layer] += 1

    def _exit(self) -> float:
        end = clock()
        span = self._stack.pop()
        duration = end - span.start
        layer = span.layer
        self.self_s[layer] += duration - span.child_s
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            self.busy_s[layer] += duration
        self.name_s[span.name] += duration
        if self._stack:
            self._stack[-1].child_s += duration
        _, _, _, parent, op = self.spans[span.index]
        self.spans[span.index] = (
            span.name, span.start - self._origin, end - self._origin, parent, op
        )
        return duration

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _wrap(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        tracer = self
        calls = self.calls
        calls[name] = 0
        self.name_s[name] = 0.0
        self.layer_of[name] = layer
        after = {
            "EventLoop.step": self._after_step,
            "FlowNetwork.start_flow": self._after_start_flow,
            "RoutingTable.paths": self._after_paths,
        }.get(name)

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
                if tracer.paused:
                    return fn(*args, **kwargs)
                calls[name] += 1
                op = kwargs.get("job_id") or tracer.op
                return tracer._proxy(fn(*args, **kwargs), name, layer, op)

            return functools.update_wrapper(gen_wrapper, fn)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer.paused:
                return fn(*args, **kwargs)
            calls[name] += 1
            saved_op = tracer.op
            job_id = kwargs.get("job_id")
            if job_id is not None:
                tracer.op = job_id
            tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._exit()
                tracer.op = saved_op
            if name == "Flowserver.select":
                tracer.select_s.append(duration)
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _proxy(self, gen: Any, name: str, layer: str, op: Optional[str]) -> Iterator[Any]:
        """Forward ``gen`` exactly, recording one span per resume."""
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            saved_op = self.op
            self.op = op
            self._enter(name, layer)
            try:
                if error is not None:
                    thrown, error = error, None
                    item = gen.throw(thrown)
                else:
                    item = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self._exit()
                self.op = saved_op
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into ``gen``
                error, value = exc, None

    def _after_step(self, args: tuple, fired: Any) -> None:
        if not fired:
            return
        self.counters["events"] += 1
        self._batch_events += 1
        events = self._batch_events
        if events % PENDING_EVERY == 0:
            pending = args[0].pending_events
            if pending > self.counters["pending_peak"]:
                self.counters["pending_peak"] = pending
        if events == self._next_verify and self._networks:
            self._next_verify *= 2
            self.verify(f"event {events}")

    def _after_start_flow(self, args: tuple, _flow: Any) -> None:
        active = len(args[0].active_flows)
        if active > self.counters["active_flows_peak"]:
            self.counters["active_flows_peak"] = active

    def _after_paths(self, args: tuple, _paths: Any) -> None:
        key = (args[1], args[2]) if len(args) >= 3 else None
        if key in self._pairs:
            self.counters["repeat_pair_calls"] += 1
        else:
            self._pairs.add(key)
            self.counters["distinct_pairs"] += 1

    def verify(self, where: str) -> None:
        """Compare the live incremental rates with a from-scratch solve."""
        paused, self.paused = self.paused, True
        started = clock()
        try:
            engine = self._networks[-1].rate_engine
            for problem in engine.verify_against_batch():
                self.problems.append(f"rate engine at {where}: {problem}")
            self.verifications += 1
        finally:
            self.check_s += clock() - started
            self.paused = paused

    def _on_component(self, kind: str, component: Any) -> None:
        if kind == "network":
            self._networks.append(component)
        elif kind == "flowserver":
            self._flowservers.append(component)

    # ------------------------------------------------------------------
    # Batches
    # ------------------------------------------------------------------

    def start_batch(self) -> None:
        """Routing repeats are counted per RoutingTable, i.e. per batch."""
        self._pairs = set()
        self._batch_events = 0
        self._next_verify = FIRST_VERIFY
        self.batch_check_start = self.check_s
        self._networks = []
        self._flowservers = []

    def finish_batch(self, batch: Any) -> None:
        """Read the counters of the objects this batch built."""
        if self._networks:
            self.verify("end of batch")
        counters = self.counters
        for network in self._networks:
            stats = network.rate_engine.stats
            counters["solves"] += stats.solves
            counters["dirty_flows"] += stats.dirty_flows
            counters["link_visits"] += stats.link_visits
            counters["full_link_visits"] += stats.full_link_visits
        for flowserver in self._flowservers:
            counters["cache_hits"] += flowserver.link_cache.hits
            counters["cache_misses"] += flowserver.link_cache.misses
        cluster = getattr(batch, "cluster", None)
        if cluster is not None:
            counters["rpc_failed"] += cluster.fabric.calls_failed

    # ------------------------------------------------------------------
    # Installing
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` undoes it."""
        from repro.sim import instrument

        for layer, module_name, owner_name, names in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(module_name)
                continue
            owner = getattr(module, owner_name, None) if owner_name else module
            for attr in names:
                label = f"{owner_name or module_name.rsplit('.', 1)[1]}.{attr}"
                if owner_name:
                    original = vars(owner).get(attr) if owner is not None else None
                else:
                    original = getattr(module, attr, None)
                if not inspect.isfunction(original):
                    self.missing.append(f"{module_name}:{label}")
                    continue
                wrapped = self._wrap(original, label, layer)
                if owner_name:
                    self._patch(owner, attr, wrapped)
                    continue
                for other in list(sys.modules.values()):
                    if (getattr(other, "__name__", "").startswith("repro")
                            and getattr(other, attr, None) is original):
                        self._patch(other, attr, wrapped)
        self._subscription = instrument.subscribe(component=self._on_component)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        from repro.sim import instrument

        if self._subscription is not None:
            instrument.unsubscribe(self._subscription)
            self._subscription = None
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._stack:
            self.problems.append(f"{len(self._stack)} spans still open after the run")

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def calls_in_layer(self, layer: str) -> int:
        return sum(n for name, n in self.calls.items() if self.layer_of[name] == layer)

    def _sum(self, table: Dict[str, Any], *names: str) -> Any:
        return sum(table.get(name, 0) for name in names)

    def layer_metrics(self, traced_s: float) -> Dict[str, Tuple[float, str]]:
        """The per-layer metrics, as {name: (value, unit)}."""
        c = self.counters
        calls, name_s = self.calls, self.name_s
        decisions = calls.get("Flowserver.select", 0)
        cost_calls = calls.get("cost.flow_cost", 0)
        paths_calls = calls.get("RoutingTable.paths", 0)
        lookups = c["cache_hits"] + c["cache_misses"]
        select_us = sorted(s * 1e6 for s in self.select_s) or [0.0]
        q = statistics.quantiles(select_us, n=100) if len(select_us) > 1 else select_us * 99
        flow_stats = ("Controller.query_flow_stats", "Controller.query_flow_stats_for")
        prefixed = lambda prefix: [n for n in calls if n.startswith(prefix)]  # noqa: E731
        metrics: Dict[str, Tuple[float, str]] = {
            "sim.events": (c["events"], "count"),
            "sim.step_self_s": (self.self_s["sim"], "s"),
            "sim.pending_peak": (c["pending_peak"], "count"),
            "routing.calls": (paths_calls, "count"),
            "routing.busy_s": (self.busy_s["routing"], "s"),
            "routing.distinct_pairs": (c["distinct_pairs"], "count"),
            "routing.hit_ratio": (c["repeat_pair_calls"] / max(paths_calls, 1), "ratio"),
            "rate_engine.solves": (c["solves"], "count"),
            "rate_engine.busy_s": (self.busy_s["rate_engine"], "s"),
            "rate_engine.eta_busy_s": (
                name_s.get("IncrementalRateEngine.earliest_completion", 0.0), "s"),
            "rate_engine.dirty_flows_per_solve": (
                c["dirty_flows"] / max(c["solves"], 1), "count"),
            "rate_engine.visit_savings": (
                c["full_link_visits"] / max(c["link_visits"], 1), "ratio"),
            "fairshare.calls": (self.calls_in_layer("fairshare"), "count"),
            "fairshare.busy_s": (self.busy_s["fairshare"], "s"),
            "simulator.flows_started": (calls.get("FlowNetwork.start_flow", 0), "count"),
            "simulator.self_s": (self.self_s["simulator"], "s"),
            "simulator.active_flows_peak": (c["active_flows_peak"], "count"),
            "flowserver.decisions": (decisions, "count"),
            "flowserver.self_s": (self.self_s["flowserver"], "s"),
            "flowserver.select_us_p50": (statistics.median(select_us), "us"),
            "flowserver.select_us_p99": (q[98], "us"),
            "cost.calls": (cost_calls, "count"),
            "cost.busy_s": (self.busy_s["cost"], "s"),
            "cost.calls_per_decision": (cost_calls / max(decisions, 1), "count"),
            "cost.share_cache_hit_ratio": (c["cache_hits"] / max(lookups, 1), "ratio"),
            "stats.polls": (calls.get("FlowStatsCollector.poll_once", 0), "count"),
            "stats.busy_s": (self.busy_s["stats"], "s"),
            "sdn.flow_stats_queries": (self._sum(calls, *flow_stats), "count"),
            "sdn.flow_stats_busy_s": (self._sum(name_s, *flow_stats), "s"),
            "sdn.transfers": (calls.get("Controller.start_transfer", 0), "count"),
            "sdn.self_s": (self.self_s["sdn"], "s"),
            "fs.nameserver_calls": (self._sum(calls, *prefixed("Nameserver.")), "count"),
            "fs.nameserver_busy_s": (self._sum(name_s, *prefixed("Nameserver.")), "s"),
            "fs.dataserver_calls": (self._sum(calls, *prefixed("Dataserver.")), "count"),
            "rpc.calls": (calls.get("RpcFabric.call", 0), "count"),
            "rpc.busy_s": (self.busy_s["rpc"], "s"),
            "rpc.failed": (c["rpc_failed"], "count"),
            "kvstore.ops": (self._sum(calls, *(f"KVStore.{op}" for op in
                                               ("put", "get", "delete", "scan"))), "count"),
            "kvstore.busy_s": (self.busy_s["kvstore"], "s"),
            "kvstore.flushes": (calls.get("KVStore.flush", 0), "count"),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_share"] = (self.self_s[layer] / traced_s, "ratio")
        return metrics

    def write_spans(self, path: Path) -> None:
        """Write every span as gzipped CSV (name,start_s,end_s,parent,op),
        then drop the spans and the objects the last batch built."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                out.write(f"{name},{start:.9f},{end:.9f},{parent},{op or ''}\n")
        self.spans = []
        self._networks = []
        self._flowservers = []
