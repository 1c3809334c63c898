"""Per-layer tracing from outside the program.

One declarative table, :data:`PROBES`, maps each layer (the repo's own
module names) to the public callables that form its boundary.  For the
traced round only, :class:`Recorder` swaps each callable for a wrapper
that records a span — layer, start, end, parent span, and the index of
the top-level call it ran under (the identifier spans of one operation
share) — into in-memory arrays, and bumps exact counters at the same
boundary.  Nothing is folded or written while the workload runs;
:meth:`Recorder.fold` reduces the arrays afterwards.

A layer's ``self_ms`` is its spans' duration minus the part covered by
child spans.  Wrapper bookkeeping happens between a span's two clock
reads, so probe overhead is charged to the probed layer itself (about
proportional to its ``calls``), never to its caller;
``trace.overhead_ratio`` says how large it is in total.

Refactor tolerance: a target that no longer resolves is listed under
``trace.unresolved_probes`` and skipped — the round still completes and
the layer reports what its remaining probes see.  In-program tracing
(``repro perf --layers``) is a later issue; nothing under ``src/`` is
edited for this.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
import weakref
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

Counters = Dict[str, int]
#: ``(counters, recorder, args, result)`` -> None, run on a normal return.
Hook = Callable[[Counters, "Recorder", tuple, Any], None]


@dataclass(frozen=True)
class Probe:
    """One callable on a layer boundary."""

    layer: str
    #: ``"package.module:Name"`` or ``"package.module:Class.method"``.
    target: str
    #: Exact-counter hook, run inside the span on a normal return.
    after: Optional[Hook] = None
    #: Counter bumped when the call raises (divergence detection).
    raises: Optional[str] = None
    #: ``args -> layer`` for a callable two layers share.
    pick: Optional[Callable[[tuple], str]] = None


# ---------------------------------------------------------------------------
# Counter hooks — counts taken at the same boundary as the span
# ---------------------------------------------------------------------------

def _request_latency(c, rec, args, result):
    # VirtualClient.request(self, runtime, data, now) -> (reply, done)
    rec.latencies.append(result[1] - args[3])


def _bytes_appended(c, rec, args, result):
    c["net.filesystem.bytes_appended"] += len(args[2])


def _iteration_role(args) -> str:
    # Server.run_iteration(self, gateway): the same event loop is the
    # leader's handler or the follower's replay, by gateway role.
    return "mve.replay" if args[1].role.value == "replay" \
        else "servers.handler"


def _iteration_records(c, rec, args, result):
    records = len(args[1].trace.records)
    c["mve.gateway.records_emitted"] += records
    if args[1].role.value == "replay":
        c["mve.replay.iterations"] += 1
    else:
        c["mve.varan.leader_iterations"] += 1
        c["sim.vsyscalls"] += records


def _runtime_gauges(c, rec, args, result):
    # VaranRuntime keeps ring_stalls and the ring's high watermark as
    # public attributes; sample them whenever the runtime hands back.
    runtime = args[0]
    stalls = runtime.ring_stalls
    c["mve.ring.stalls"] += stalls - rec.stalls_seen.get(runtime, 0)
    rec.stalls_seen[runtime] = stalls
    if runtime.ring.high_watermark > c["mve.ring.high_watermark"]:
        c["mve.ring.high_watermark"] = runtime.ring.high_watermark


def _ring_push(c, rec, args, result):
    c["mve.ring.entries_pushed"] += 1
    c["mve.ring.pushes"] += 1


def _ring_push_many(c, rec, args, result):
    c["mve.ring.entries_pushed"] += len(result)
    c["mve.ring.pushes"] += 1


def _inflight(c, rec, args, result):
    if args[0].inflight_high_watermark \
            > c["mve.distring.inflight_high_watermark"]:
        c["mve.distring.inflight_high_watermark"] = \
            args[0].inflight_high_watermark


def _frame(c, rec, args, result):
    # encode_frame(sequence, payloads) -> line (ASCII JSON)
    c["net.ring_wire.frames"] += 1
    c["net.ring_wire.bytes"] += len(result)
    c["net.ring_wire.records"] += len(args[1])


def _rule_offer(c, rec, args, result):
    c["mve.rules.records_in"] += 1


def _rules_fired(c, rec, args, result):
    # RuleEngine.take_ready(self): one engine per replayed iteration.
    c["mve.rules.fired"] += len(args[0].fired)


def _rules_parsed(c, rec, args, result):
    c["mve.dsl.parser.rules_parsed"] += len(result)


def _transformed(c, rec, args, result):
    # Kitsune.transform -> (new_heap, duration_ns, entries)
    c["dsu.kitsune.updates"] += 1
    c["dsu.kitsune.entries_transformed"] += result[2]


def _update_ok(c, rec, args, result):
    if result.ok:
        c["core.mvedsua.updates_ok"] += 1


def _span_made(c, rec, args, result):
    c["obs.spans.spans"] += 1


def _attributed(c, rec, args, result):
    c["obs.slo.requests_attributed"] += 1


def _fault_fired(c, rec, args, result):
    if result is not None:
        c["chaos.injector.fires"] += 1


def _violations(c, rec, args, result):
    c["chaos.invariants.violations"] += len(result)


def _stream_written(c, rec, args, result):
    c["replay.entries"] += result


def _event_scheduled(c, rec, args, result):
    c["sim.engine.events"] += 1


# ---------------------------------------------------------------------------
# The probe table: layer -> public callables
# ---------------------------------------------------------------------------

def _table() -> List[Probe]:
    P = Probe
    kernel = "repro.net.kernel:VirtualKernel."
    gateway = "repro.mve.gateway:SyscallGateway."
    varan = "repro.mve.varan:VaranRuntime."
    ring = "repro.mve.ring_buffer:RingBuffer."
    distring = "repro.mve.distring:DistributedRing."
    engine = "repro.mve.dsl.rules:RuleEngine."
    mvedsua = "repro.core.mvedsua:Mvedsua."
    probes = [
        P("workloads.client", "repro.workloads.client:VirtualClient.request",
          after=_request_latency),
        P("workloads.client", "repro.workloads.client:VirtualClient.send"),
        P("workloads.client", "repro.workloads.client:VirtualClient.recv"),
        P("workloads.openloop",
          "repro.workloads.openloop:OpenLoopGenerator.events"),
        P("workloads.openloop", "repro.workloads.pool:FlyweightPool.assign"),
        P("workloads.openloop", "repro.workloads.keyspace:ZipfKeys.sample"),
    ]
    probes += [P("net.kernel", kernel + name) for name in (
        "read", "write", "accept", "connect", "close", "listen",
        "epoll_wait", "epoll_ctl")]
    probes += [
        P("net.filesystem",
          "repro.net.filesystem:VirtualFilesystem.append_file",
          after=_bytes_appended),
        P("net.filesystem",
          "repro.net.filesystem:VirtualFilesystem.write_file"),
        P("net.filesystem",
          "repro.net.filesystem:VirtualFilesystem.read_file"),
    ]
    probes += [P("mve.gateway", gateway + name) for name in (
        "epoll_wait", "epoll_ctl", "connect", "listen", "accept", "read",
        "write", "close", "fs_read", "fs_write", "fs_append", "fs_unlink",
        "fs_rename", "fs_stat", "fs_mkdir", "fs_rmdir", "fs_is_dir",
        "fs_listdir", "begin_iteration", "finish_iteration")]
    probes += [
        P("servers.handler", "repro.servers.base:Server.run_iteration",
          after=_iteration_records, pick=_iteration_role),
        P("servers.handler",
          "repro.servers.memcached.server:MemcachedServer.run_iteration",
          after=_iteration_records, pick=_iteration_role),
        P("mve.replay", varan + "drain_follower"),
        # Patched where the gateway bound them, which is where they run.
        P("mve.divergence", "repro.mve.gateway:check_match",
          raises="mve.replay.divergences"),
        P("mve.divergence", "repro.mve.gateway:check_drained",
          raises="mve.replay.divergences"),
    ]
    probes += [P("mve.varan", varan + name, after=_runtime_gauges)
               for name in ("pump", "fork_follower", "promote", "finalize",
                            "terminate_follower")]
    probes += [
        P("mve.ring", ring + "push", after=_ring_push),
        P("mve.ring", ring + "push_many", after=_ring_push_many),
        P("mve.ring", ring + "pop"),
        P("mve.ring", ring + "pop_many"),
        P("mve.distring", distring + "push", after=_inflight),
        P("mve.distring", distring + "push_many", after=_inflight),
        P("mve.distring", distring + "advance"),
        P("mve.distring", distring + "next_free_at"),
        P("mve.distring", distring + "resync"),
        P("net.ring_wire", "repro.net.ring_wire:encode_frame", after=_frame),
        P("net.ring_wire", "repro.net.ring_wire:decode_frame"),
        P("net.ring_wire", "repro.net.ring_wire:encode_ack"),
        P("net.ring_wire", "repro.net.ring_wire:decode_ack"),
        P("mve.rules", "repro.mve.dsl.rules:RuleSet.engine_for_stage"),
        P("mve.rules", engine + "offer", after=_rule_offer),
        P("mve.rules", engine + "flush"),
        P("mve.rules", engine + "take_ready", after=_rules_fired),
        P("mve.dsl.parser", "repro.mve.dsl.parser:parse_rules",
          after=_rules_parsed),
        P("dsu.kitsune", "repro.dsu.kitsune:Kitsune.quiesce"),
        P("dsu.kitsune", "repro.dsu.kitsune:Kitsune.transform",
          after=_transformed),
        P("dsu.kitsune", "repro.dsu.kitsune:Kitsune.apply_update"),
        P("dsu.kitsune", "repro.servers.base:Server.fork"),
        P("core.mvedsua", mvedsua + "pump"),
        P("core.mvedsua", mvedsua + "request_update", after=_update_ok),
        P("core.mvedsua", mvedsua + "promote"),
        P("core.mvedsua", mvedsua + "finalize"),
        P("core.mvedsua", mvedsua + "rollback"),
        P("syscalls.costs", "repro.syscalls.costs:AppProfile.factors"),
        P("syscalls.costs", "repro.syscalls.costs:AppProfile.op_cost_ns"),
        P("syscalls.costs",
          "repro.syscalls.costs:AppProfile.iteration_cost_ns"),
        P("obs.trace", "repro.obs.trace:Tracer.emit"),
        P("obs.spans", "repro.obs.spans:SpanCollector.open",
          after=_span_made),
        P("obs.spans", "repro.obs.spans:SpanCollector.close"),
        P("obs.spans", "repro.obs.spans:SpanCollector.add",
          after=_span_made),
        P("obs.slo", "repro.obs.slo:collect_cell"),
        P("obs.slo", "repro.obs.slo:effective_phase"),
        P("obs.slo", "repro.obs.slo:attribute_request", after=_attributed),
        P("obs.slo", "repro.obs.slo:build_slo_report"),
        P("chaos.injector", "repro.chaos.injector:ChaosInjector.fire",
          after=_fault_fired),
        P("chaos.injector", "repro.chaos.injector:ChaosInjector.advance"),
        P("chaos.injector",
          "repro.chaos.injector:ChaosInjector.kernel_call"),
        P("chaos.invariants", "repro.chaos.invariants:check_run",
          after=_violations),
        P("replay", "repro.replay.recorder:StreamRecorder.on_iteration"),
        P("replay", "repro.replay.recorder:StreamRecorder.write",
          after=_stream_written),
        P("replay", "repro.replay.engine:replay_file"),
        P("bench.fluid", "repro.bench.fluid:FluidSim.run"),
        P("sim.engine", "repro.sim.engine:Engine.schedule_at",
          after=_event_scheduled),
        P("sim.engine", "repro.sim.engine:Engine.run"),
    ]
    return probes


PROBES: List[Probe] = _table()

#: Layers in report order (first appearance in the table).
LAYERS: List[str] = list(dict.fromkeys(probe.layer for probe in PROBES))

#: Exact counters the hooks above maintain: name -> (unit, better).
COUNTERS: Dict[str, Tuple[str, str]] = {
    "sim.vsyscalls": ("count", "lower"),
    "net.filesystem.bytes_appended": ("bytes", "lower"),
    "mve.gateway.records_emitted": ("count", "lower"),
    "mve.replay.iterations": ("count", "lower"),
    "mve.replay.divergences": ("count", "lower"),
    "mve.varan.leader_iterations": ("count", "lower"),
    "mve.ring.entries_pushed": ("count", "lower"),
    "mve.ring.stalls": ("count", "lower"),
    "mve.ring.high_watermark": ("count", "lower"),
    "mve.distring.inflight_high_watermark": ("count", "lower"),
    "net.ring_wire.frames": ("count", "lower"),
    "net.ring_wire.bytes": ("bytes", "lower"),
    "mve.rules.records_in": ("count", "lower"),
    "mve.rules.fired": ("count", "higher"),
    "mve.dsl.parser.rules_parsed": ("count", "lower"),
    "dsu.kitsune.updates": ("count", "higher"),
    "dsu.kitsune.entries_transformed": ("count", "lower"),
    "core.mvedsua.updates_ok": ("count", "higher"),
    "obs.spans.spans": ("count", "lower"),
    "obs.slo.requests_attributed": ("count", "lower"),
    "chaos.injector.fires": ("count", "higher"),
    "chaos.invariants.violations": ("count", "lower"),
    "replay.entries": ("count", "lower"),
    "sim.engine.events": ("count", "lower"),
}

#: Counters the workload itself reports (read off the program's own
#: reports, see ``workloads.Outcome.counters``).
OUTCOME_COUNTERS: Dict[str, Tuple[str, str]] = {
    "workloads.openloop.offered": ("count", "higher"),
    "workloads.openloop.answered": ("count", "higher"),
    "workloads.openloop.tracked_objects": ("count", "lower"),
}

#: Numbers derived from the counters and spans at fold time.
DERIVED: Dict[str, Tuple[str, str]] = {
    "sim.vlat_p50_ns": ("vns", "lower"),
    "sim.vlat_p99_ns": ("vns", "lower"),
    "sim.vsyscalls_per_op": ("1/op", "lower"),
    "mve.ring.batch_mean": ("1/push", "higher"),
    "net.ring_wire.bytes_per_record": ("bytes", "lower"),
    "mve.rules.fired_per_record": ("ratio", "higher"),
    "trace.root_ms": ("ms", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
    "trace.unresolved_probes": ("count", "lower"),
}


def fold_metric_specs() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of everything :meth:`Recorder.fold`
    returns, in report order."""
    specs: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        specs.append((f"{layer}.calls", "count", "lower"))
        specs.append((f"{layer}.self_ms", "ms", "lower"))
    for table in (COUNTERS, DERIVED):
        specs.extend((name, unit, better)
                     for name, (unit, better) in table.items())
    return specs


# ---------------------------------------------------------------------------
# The recorder
# ---------------------------------------------------------------------------

def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, callable)`` for a probe target; raises
    ImportError/AttributeError when it no longer exists."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    original = inspect.getattr_static(owner, attribute)
    if not inspect.isfunction(original):
        raise AttributeError(f"{target} is not a plain function")
    return owner, attribute, original


def _percentile(ordered: List[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


class Recorder:
    """Installs the probes, holds the spans, folds them afterwards."""

    ROOT = "trace.root"

    def __init__(self) -> None:
        self.layer_ids = {name: index for index, name in enumerate(LAYERS)}
        self.layer_ids[self.ROOT] = len(LAYERS)
        # One row per span, column-wise; a root span (parent -1) is one
        # timed slice of the run.
        self.span_layer = array("H")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        #: Open spans, innermost last.
        self.stack: List[int] = []
        #: Index of the current top-level call under the root.
        self.op = -1
        #: Calls per layer (a generator counts once, its resumes are
        #: separate spans).
        self.calls = [0] * (len(LAYERS) + 1)
        self.counters: Counters = {name: 0 for name in COUNTERS}
        self.counters.update({"mve.ring.pushes": 0,
                              "net.ring_wire.records": 0})
        self.latencies = array("q")
        self.stalls_seen: "weakref.WeakKeyDictionary[Any, int]" = \
            weakref.WeakKeyDictionary()
        self.unresolved: List[str] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        """Swap every resolvable probe target for its wrapper."""
        replaced: Dict[int, Any] = {}
        for probe in PROBES:
            try:
                owner, attribute, original = _resolve(probe.target)
            except (ImportError, AttributeError):
                self.unresolved.append(probe.target)
                continue
            wrapper = self._wrap(probe, original)
            self._patch(owner, attribute, original, wrapper)
            replaced[id(original)] = (original, wrapper)
        # A module function imported by name elsewhere (``from
        # repro.obs.slo import collect_cell``) is a second binding of
        # the same object: rebind those too.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, name, value, hit[1])

    def _patch(self, owner: Any, attribute: str, original: Any,
               wrapper: Any) -> None:
        setattr(owner, attribute, wrapper)
        self._patched.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put every original back (safe to call twice)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- the timed region ----------------------------------------------

    def start(self) -> None:
        """Open a root span: one timed slice, until :meth:`stop`."""
        self._enter(self.layer_ids[self.ROOT])

    def stop(self) -> None:
        self.span_end[self.stack.pop()] = time.perf_counter_ns()

    def _enter(self, layer_id: int) -> int:
        start = time.perf_counter_ns()
        stack = self.stack
        index = len(self.span_start)
        if len(stack) == 1:
            self.op += 1
        self.span_layer.append(layer_id)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0)
        stack.append(index)
        self.span_start.append(start)
        return index

    def _wrap(self, probe: Probe, fn: Any) -> Any:
        """The wrapper for one probe target.

        The clock reads bracket the bookkeeping, so probe overhead is
        charged to this span's own layer.
        """
        recorder = self
        ids = self.layer_ids
        fixed_id = ids[probe.layer]
        pick, after, raises = probe.pick, probe.after, probe.raises
        calls, counters = self.calls, self.counters
        span_end, stack = self.span_end, self.stack
        enter, clock = self._enter, time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):
            def generator_wrapper(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                if not stack:  # outside the timed region: not recorded
                    yield from iterator
                    return
                calls[fixed_id] += 1
                while True:
                    index = enter(fixed_id)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        span_end[index] = clock()
                    yield item
            return generator_wrapper

        def wrapper(*args, **kwargs):
            if not stack:  # outside the timed region: not recorded
                return fn(*args, **kwargs)
            layer_id = fixed_id if pick is None else ids[pick(args)]
            index = enter(layer_id)
            calls[layer_id] += 1
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(counters, recorder, args, result)
                return result
            except BaseException:
                if raises is not None:
                    counters[raises] += 1
                raise
            finally:
                stack.pop()
                span_end[index] = clock()
        wrapper.__wrapped__ = fn
        return wrapper

    # -- folding -------------------------------------------------------

    def fold(self, ops: int) -> Dict[str, float]:
        """Reduce the recorded spans to the per-layer metrics."""
        layer, parent = self.span_layer, self.span_parent
        start, end = self.span_start, self.span_end
        count = len(start)
        covered = [0] * count
        root_ns = 0
        for index in range(count):
            if parent[index] < 0:
                root_ns += end[index] - start[index]
            else:
                covered[parent[index]] += end[index] - start[index]
        self_ns = [0] * (len(LAYERS) + 1)
        for index in range(count):
            self_ns[layer[index]] += \
                end[index] - start[index] - covered[index]
        unattributed_ns = self_ns[self.layer_ids[self.ROOT]]
        # Self-time accounting must close: every nanosecond of the root
        # span is some layer's self time or unattributed.
        drift = abs(sum(self_ns) - root_ns)
        if drift > root_ns // 100:
            raise AssertionError(
                f"self-time accounting is off by {drift} ns of {root_ns}")

        metrics: Dict[str, float] = {}
        for name in LAYERS:
            layer_id = self.layer_ids[name]
            metrics[f"{name}.calls"] = self.calls[layer_id]
            metrics[f"{name}.self_ms"] = self_ns[layer_id] / 1e6
        c = self.counters
        for name in COUNTERS:
            metrics[name] = c[name]
        ordered = sorted(self.latencies)
        metrics["sim.vlat_p50_ns"] = _percentile(ordered, 0.50)
        metrics["sim.vlat_p99_ns"] = _percentile(ordered, 0.99)
        metrics["sim.vsyscalls_per_op"] = \
            c["sim.vsyscalls"] / ops if ops else 0
        metrics["mve.ring.batch_mean"] = \
            c["mve.ring.entries_pushed"] / c["mve.ring.pushes"] \
            if c["mve.ring.pushes"] else 0
        metrics["net.ring_wire.bytes_per_record"] = \
            c["net.ring_wire.bytes"] / c["net.ring_wire.records"] \
            if c["net.ring_wire.records"] else 0
        metrics["mve.rules.fired_per_record"] = \
            c["mve.rules.fired"] / c["mve.rules.records_in"] \
            if c["mve.rules.records_in"] else 0
        metrics["trace.root_ms"] = root_ns / 1e6
        metrics["trace.unattributed_share"] = unattributed_ns / root_ns
        metrics["trace.unresolved_probes"] = len(self.unresolved)
        return metrics
