"""Outside-in per-layer tracer for the benchmark's traced run.

The tracer wraps the public entry points of each ``repro`` layer (the
``BOUNDARIES`` table) from the benchmark's own files; nothing under
``src/`` changes.  Every wrapped call is a span with a name, a start, an
end and a parent.  Every event the simulator fires is a root span,
charged to the layer whose module defines the callback, and every span
under one event carries that event's id.  A layer's self time is the
time its spans cover minus the time their child spans cover, so the
``simulator`` layer's self time is only calendar work and dispatch.

Aggregates (self time and calls per layer, calls per boundary) are kept
for the whole run; full spans are kept in memory only for a bounded
slice of events after warmup and written as a Chrome ``trace_event``
document, the format ``repro trace`` emits.

A boundary that no longer exists makes :meth:`Tracer.install` raise
:class:`BoundaryMissing` naming it, so a refactor cannot silently stop
a layer from being measured.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

#: Layers in report order, with the module prefixes each one owns.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "simulator": ("repro.net.simulator",),
    "network": ("repro.net.network", "repro.net.topology",
                "repro.net.failures", "repro.net.sanitizer"),
    "chaos": ("repro.net.chaos",),
    "consensus": ("repro.consensus",),
    "geobft": ("repro.core",),
    "crypto": ("repro.crypto",),
    "ledger": ("repro.ledger",),
    "workload": ("repro.workload",),
    "metrics": ("repro.bench.metrics",),
}
LAYERS: Tuple[str, ...] = tuple(LAYER_MODULES)

#: Pseudo-layer for fired callbacks defined outside every layer.
UNATTRIBUTED = "unattributed"

#: (layer, module, qualified name) of every wrapped entry point.  GeoBFT's
#: message handlers are reached through ``GeoBftReplica.handle``'s
#: dispatch ladder, which also feeds the local PBFT engine, so the
#: handlers themselves are the geobft boundary and ``handle`` stays
#: consensus work.  The simulator's three scheduling calls also wrap the
#: callback they enqueue, which is how fired events become root spans.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("simulator", "repro.net.simulator", "Simulation.run"),
    ("simulator", "repro.net.simulator", "Simulation.schedule"),
    ("simulator", "repro.net.simulator", "Simulation.post"),
    ("simulator", "repro.net.simulator", "Simulation.post_group"),
    ("network", "repro.net.network", "Network.send"),
    ("network", "repro.net.network", "Network.multicast"),
    ("network", "repro.net.network", "Network._multicast_distinct"),
    ("network", "repro.net.failures", "FailureModel.crash"),
    ("network", "repro.net.failures", "FailureModel.recover"),
    ("chaos", "repro.net.chaos", "Fault.activate"),
    ("chaos", "repro.net.chaos", "Fault.deactivate"),
    ("chaos", "repro.net.chaos", "FaultTimeline.liveness_failures"),
    ("consensus", "repro.consensus.replica", "BaseReplica.deliver"),
    ("consensus", "repro.consensus.pbft", "PbftReplica.handle"),
    ("consensus", "repro.consensus.pbft", "PbftEngine.handle"),
    ("consensus", "repro.consensus.pbft", "PbftEngine.submit_request"),
    ("consensus", "repro.consensus.pbft", "PbftEngine.start_view_change"),
    ("geobft", "repro.core.geobft", "GeoBftReplica._on_client_request"),
    ("geobft", "repro.core.geobft", "GeoBftReplica._on_local_decide"),
    ("geobft", "repro.core.geobft", "GeoBftReplica._on_global_share"),
    ("geobft", "repro.core.ordering", "OrderingBuffer.add_share"),
    ("geobft", "repro.core.remote_view_change",
     "RemoteViewChangeManager.on_share_received"),
    ("geobft", "repro.core.remote_view_change",
     "RemoteViewChangeManager.handle_drvc"),
    ("geobft", "repro.core.remote_view_change",
     "RemoteViewChangeManager.handle_rvc"),
    ("crypto", "repro.crypto.signatures", "Signer.sign"),
    ("crypto", "repro.crypto.signatures", "KeyRegistry.verify"),
    ("crypto", "repro.crypto.macs", "MacAuthenticator.tag"),
    ("crypto", "repro.crypto.macs", "MacAuthenticator.verify"),
    ("crypto", "repro.crypto.digests", "CachedEncodable.encoded"),
    ("crypto", "repro.crypto.digests", "CachedEncodable.payload_digest"),
    ("crypto", "repro.crypto.digests", "encode_canonical"),
    ("crypto", "repro.crypto.digests", "digest"),
    ("crypto", "repro.crypto.digests", "digest_of"),
    ("crypto", "repro.crypto.digests", "cached_digest"),
    ("crypto", "repro.crypto.digests", "chain_digest"),
    ("ledger", "repro.ledger.block", "batch_digest"),
    ("ledger", "repro.ledger.blockchain", "Blockchain.append"),
    ("ledger", "repro.ledger.blockchain", "Blockchain.verify"),
    ("ledger", "repro.ledger.blockchain", "Blockchain.matches_prefix_of"),
    ("ledger", "repro.ledger.execution", "ExecutionEngine.execute_batch"),
    ("ledger", "repro.ledger.execution", "ExecutionEngine.results_digest"),
    ("ledger", "repro.ledger.execution", "ExecutionEngine.state_digest"),
    ("ledger", "repro.ledger.recovery", "recover_from_peer"),
    ("workload", "repro.workload.ycsb", "YcsbWorkload.next_batch"),
    ("workload", "repro.workload.payment", "PaymentWorkload.next_batch"),
    ("workload", "repro.workload.client", "QuorumClient.start"),
    ("workload", "repro.workload.client", "QuorumClient.deliver"),
    ("workload", "repro.workload.traffic", "OpenLoopSource.start"),
    ("workload", "repro.workload.traffic", "OpenLoopSource.deliver"),
    ("metrics", "repro.bench.metrics", "Metrics.record_submitted"),
    ("metrics", "repro.bench.metrics", "Metrics.record_completed"),
    ("metrics", "repro.bench.metrics", "Metrics.record_offered"),
    ("metrics", "repro.bench.metrics", "Metrics.record_rejected"),
    ("metrics", "repro.bench.metrics", "Metrics.record_abandoned"),
    ("metrics", "repro.bench.metrics", "Metrics.record_retried"),
    ("metrics", "repro.bench.metrics", "Metrics.record_executed"),
    ("metrics", "repro.bench.metrics", "Metrics.record_round"),
    ("metrics", "repro.bench.metrics", "Metrics.network_observer"),
    ("metrics", "repro.bench.metrics", "Metrics.network_observer_group"),
    ("metrics", "repro.bench.metrics", "Metrics.finish"),
)

#: Events after ``slice_from`` whose full spans are kept and written.
SLICE_EVENTS = 2_000

#: Scheduling calls whose callback argument becomes a root span, with
#: the number of positional arguments that precede the callback.
_SCHEDULERS = {"Simulation.schedule": 1, "Simulation.post": 1,
               "Simulation.post_group": 2}


class BoundaryMissing(RuntimeError):
    """A boundary in the table no longer exists in the program."""


def layer_of_module(module: Optional[str]) -> str:
    """The layer owning ``module`` (longest prefix), or unattributed."""
    best, best_len = UNATTRIBUTED, -1
    for layer, prefixes in LAYER_MODULES.items():
        for prefix in prefixes:
            if ((module == prefix or (module or "").startswith(prefix + "."))
                    and len(prefix) > best_len):
                best, best_len = layer, len(prefix)
    return best


def _resolve(module_name: str, qualname: str):
    """(owner, attribute name, function) of a boundary, or raise."""
    where = f"{module_name}:{qualname}"
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise BoundaryMissing(f"boundary {where}: module cannot be "
                              f"imported ({exc})") from exc
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise BoundaryMissing(f"boundary {where}: {part} no longer "
                                  f"exists in {module_name}")
    name = parts[-1]
    namespace = vars(owner)
    if name not in namespace:
        raise BoundaryMissing(f"boundary {where}: {name} is no longer "
                              f"defined there")
    fn = namespace[name]
    if not callable(fn) or isinstance(fn, (staticmethod, classmethod,
                                           property)):
        raise BoundaryMissing(f"boundary {where}: no longer a plain "
                              f"function")
    return owner, name, fn


def _busy_wait(seconds: float) -> float:
    """Spin for ``seconds`` of host time; returns the time spun."""
    start = perf_counter()  # repro: allow[no-wallclock] planted host delay
    now = start
    while now - start < seconds:
        now = perf_counter()  # repro: allow[no-wallclock] planted delay
    return now - start


class Tracer:
    """Wraps the boundaries, times spans and aggregates them per layer.

    ``plant`` maps a layer to a host delay added inside each of that
    layer's boundary calls; the layer-sensitivity self-test uses it to
    check that a layer's self time and the run time both grow by what
    was planted.  Full spans are kept for :data:`SLICE_EVENTS` events
    from ``slice_from`` (simulated seconds) on.
    """

    def __init__(self, boundaries: Sequence[Tuple[str, str, str]]
                 = BOUNDARIES, plant: Optional[Dict[str, float]] = None,
                 slice_from: float = 0.0):
        self.boundaries = tuple(boundaries)
        self.plant = dict(plant or {})
        unknown = set(self.plant) - set(LAYERS)
        if unknown:
            raise ValueError(f"cannot plant in unknown layers {unknown}")
        self.slice_from = slice_from
        self._layer_names = LAYERS + (UNATTRIBUTED,)
        self._layer_index = {name: i for i, name in
                             enumerate(self._layer_names)}
        self._patches: List[Tuple[object, str, object]] = []
        self._root_layer: Dict[object, Tuple[int, str]] = {}
        self._sim = None
        self.reset()

    # -- counters --------------------------------------------------------
    def reset(self) -> None:
        """Zero every aggregate (called right before the timed run)."""
        self.self_s = [0.0] * len(self._layer_index)
        self.calls = [0] * len(self._layer_index)
        self.boundary_calls = [0] * len(self.boundaries)
        self.planted_s = 0.0
        # Base frame: collects the time of top-level spans.
        self._stack: List[list] = [[0.0, 0]]
        self.spans: List[tuple] = []
        self._recording = False
        self._slice_left = SLICE_EVENTS
        self._span_ids = 0
        self._event_id = 0

    # -- installation ----------------------------------------------------
    def install(self) -> "Tracer":
        """Resolve every boundary (all or nothing) and wrap it."""
        resolved = [_resolve(module, qualname)
                    for _, module, qualname in self.boundaries]
        for index, ((layer, module, qualname), (owner, name, fn)) in \
                enumerate(zip(self.boundaries, resolved)):
            if qualname in _SCHEDULERS and module == "repro.net.simulator":
                wrapper = self._wrap_scheduler(fn, layer, index,
                                               _SCHEDULERS[qualname])
            else:
                wrapper = self._wrap(fn, layer, index)
            self._patch(owner, name, wrapper)
            if "." not in qualname:
                # Importers bind module functions under their own names.
                for other in list(sys.modules.values()):
                    if (other is owner or not getattr(
                            other, "__name__", "").startswith("repro.")):
                        continue
                    for alias, value in list(vars(other).items()):
                        if value is fn:
                            self._patch(other, alias, wrapper)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, fn, layer: str, index: int):
        tracer = self
        layer_i = self._layer_index[layer]
        name = fn.__qualname__
        delay = self.plant.get(layer, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            frame = [0.0, 0]
            if tracer._recording:
                tracer._span_ids += 1
                frame[1] = tracer._span_ids
            parent = stack[-1]
            stack.append(frame)
            start = perf_counter()  # repro: allow[no-wallclock] span start
            try:
                if delay:
                    tracer.planted_s += _busy_wait(delay)
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()  # repro: allow[no-wallclock] span end
                stack.pop()
                duration = end - start
                tracer.self_s[layer_i] += duration - frame[0]
                tracer.calls[layer_i] += 1
                tracer.boundary_calls[index] += 1
                parent[0] += duration
                if frame[1]:
                    tracer.spans.append((tracer._event_id, frame[1],
                                         parent[1], name, layer, start, end))
        return wrapper

    def _wrap_scheduler(self, fn, layer: str, index: int, before: int):
        """A scheduling call whose enqueued callback fires as a root span."""
        timed = self._wrap(fn, layer, index)
        fire = self._fire

        @functools.wraps(fn)
        def scheduler(sim, *args):
            if self._sim is None:
                self._sim = sim
            head, callback, rest = args[:before], args[before], args[before + 1:]
            return timed(sim, *head, fire, callback, rest)
        return scheduler

    def _root(self, callback) -> Tuple[int, str]:
        key = getattr(callback, "__func__", callback)
        key = getattr(key, "func", key)  # functools.partial
        cached = self._root_layer.get(key)
        if cached is None:
            layer = layer_of_module(getattr(key, "__module__", None))
            name = getattr(key, "__qualname__", repr(key))
            cached = self._root_layer[key] = (self._layer_index[layer], name)
        return cached

    def _fire(self, callback, args) -> None:
        layer_i, name = self._root(callback)
        self._event_id += 1
        if self._slice_left > 0 and self._sim is not None:
            self._recording = self._sim.now >= self.slice_from
            if self._recording:
                self._slice_left -= 1
        elif self._recording:
            self._recording = False
        stack = self._stack
        frame = [0.0, 0]
        if self._recording:
            self._span_ids += 1
            frame[1] = self._span_ids
        parent = stack[-1]
        stack.append(frame)
        start = perf_counter()  # repro: allow[no-wallclock] event span start
        try:
            callback(*args)
        finally:
            end = perf_counter()  # repro: allow[no-wallclock] event span end
            stack.pop()
            duration = end - start
            self.self_s[layer_i] += duration - frame[0]
            self.calls[layer_i] += 1
            parent[0] += duration
            if frame[1]:
                self.spans.append((self._event_id, frame[1], parent[1], name,
                                   self._layer_names[layer_i], start, end))

    # -- results -----------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        return {name: self.self_s[i] for name, i in self._layer_index.items()}

    def layer_calls(self) -> Dict[str, int]:
        return {name: self.calls[i] for name, i in self._layer_index.items()}

    def calls_of(self, qualname: str) -> int:
        """Calls of the boundary ``qualname`` (summed over modules)."""
        return sum(count for (_, _, q), count in
                   zip(self.boundaries, self.boundary_calls) if q == qualname)

    def write_chrome_trace(self, path: str, origin: float,
                           aggregates: Dict[str, object]) -> None:
        """Write the span slice as a Chrome ``trace_event`` document.

        Spans become complete ("X") events on one host track, in
        microseconds of host time since ``origin``; ``aggregates`` (the
        whole-run per-layer numbers) ride in ``otherData``.
        """
        events: List[Dict[str, object]] = [{
            "name": "process_name", "ph": "M", "pid": 1,
            "args": {"name": "host (traced run)"},
        }]
        for event_id, span_id, parent_id, name, layer, start, end in \
                self.spans:
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"event": event_id, "span": span_id,
                         "parent": parent_id, "layer": layer},
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": aggregates}, fh)
