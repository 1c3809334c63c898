"""The app catalog: every application is wired here, once.

An :class:`AppConfig` is the quintuple the paper's evaluation is made
of — a release order, the rewrite rules per adjacent pair, the state
transformers, the server class and (through it) the cost profile — plus
what the analyzers want on top: seed traffic for synthetic heaps, the
app's fault plans / fleet topologies / load specs, and an allowlist of
findings it deliberately accepts.  ``lint``/``prove``, ``replay``, the
trace/SLO/open-loop/chaos/fleet scenarios and the paper experiments all
read the same entry.

:func:`app` builds a shipped config lazily, once per process (so
importing this module drags in no server package);
:func:`default_catalog` is all of them; :func:`load_catalog` loads a
custom catalog from a Python file exposing ``catalog()`` — how the test
fixtures (and downstream users) lint their own configurations::

    python -m repro lint --catalog my_catalog.py

:func:`deploy` stands one stack up — kernel, server, ``attach``,
runtime — in the order every scenario uses::

    stack = deploy("kvstore", "1.0")            # under Mvedsua
    client = stack.client()
    client.command(stack.runtime, b"PUT k v")
    stack.update("2.0", at=SECOND)              # the pair's shipped rules
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.core.mvedsua import Mvedsua
from repro.dsu.kitsune import UpdateAttempt
from repro.dsu.transform import TransformRegistry
from repro.dsu.version import ServerVersion, VersionRegistry
from repro.errors import NoUpdatePath
from repro.mve.dsl import Direction, RuleSet, rule_set
from repro.net.kernel import VirtualKernel
from repro.syscalls.costs import PROFILES
from repro.workloads.client import VirtualClient


@dataclass
class AppConfig:
    """One application: its releases, rules, transformers and server."""

    name: str
    versions: VersionRegistry
    transforms: TransformRegistry
    #: ``rules_for(old, new)`` returns the pair's RuleSet (empty when the
    #: releases are syscall-identical).
    rules_for: Callable[[str, str], RuleSet]
    #: Requests replayed through ``handle()`` to populate synthetic
    #: heaps for the transformer audit.
    seed_requests: Tuple[bytes, ...] = ()
    #: Zero-argument factories returning the app's chaos
    #: :class:`~repro.chaos.plan.FaultPlan` values, linted by MVE6xx.
    fault_plans: Tuple[Callable[[], object], ...] = ()
    #: Zero-argument factories returning the app's fleet
    #: :class:`~repro.cluster.shard.FleetSpec` topologies, linted by
    #: MVE7xx.
    fleet_topologies: Tuple[Callable[[], object], ...] = ()
    #: Zero-argument factories returning the app's open-loop
    #: :class:`~repro.workloads.openloop.LoadSpec` workloads, linted by
    #: MVE10xx.
    workload_specs: Tuple[Callable[[], object], ...] = ()
    #: ``(code, location_substring)`` pairs of accepted findings; keep a
    #: comment next to each entry saying *why* it is acceptable.
    allow: Tuple[Tuple[str, str], ...] = field(default_factory=tuple)
    #: ``server_factory(version, **kw)`` builds the app's real server;
    #: ``None`` falls back to the generic
    #: :class:`repro.servers.base.Server`.
    server_factory: Optional[Callable[..., object]] = None
    #: Non-release builds, ``label -> zero-argument version factory``
    #: (fault builds a stack can be deployed at or a stream replayed
    #: ``--against``); the built version's ``name`` is the release its
    #: rules and transformers are registered under.
    candidates: Dict[str, Callable[[], ServerVersion]] = field(
        default_factory=dict)

    def labels(self) -> Tuple[str, ...]:
        """Every deployable label: the releases in order, then the
        candidate builds."""
        return tuple(self.versions.releases(self.name)) \
            + tuple(self.candidates)

    def version(self, label: str) -> ServerVersion:
        """The version object behind ``label``
        (:class:`~repro.errors.NoUpdatePath` if there is none)."""
        factory = self.candidates.get(label)
        if factory is not None:
            return factory()
        return self.versions.get(self.name, label)

    def server(self, label: str, **kwargs: Any) -> Any:
        """A fresh, unattached server running ``label``."""
        version = self.version(label)
        if self.server_factory is None:
            from repro.servers.base import Server
            return Server(version, **kwargs)
        return self.server_factory(version, **kwargs)

    def stage_for(self, leader: str, candidate: str) \
            -> Tuple[Optional[RuleSet], Optional[Direction]]:
        """How to rewrite a ``leader``-version stream for ``candidate``.

        Returns ``(None, None)`` when the two are builds of one release
        (identity); otherwise the pair's rule set plus the replay
        direction — the candidate plays follower, so an older leader
        means ``OUTDATED_LEADER`` (the pre-promotion stage) and a newer
        leader means ``UPDATED_LEADER`` (the post-promotion mirror
        stage).
        """
        leader = self.version(leader).name
        candidate = self.version(candidate).name
        if leader == candidate:
            return None, None
        order = self.versions.releases(self.name)
        if order.index(leader) < order.index(candidate):
            return self.rules_for(leader, candidate), \
                Direction.OUTDATED_LEADER
        return self.rules_for(candidate, leader), Direction.UPDATED_LEADER


@dataclass
class Stack:
    """One deployed server: what :func:`deploy` stood up."""

    kernel: VirtualKernel
    server: Any
    #: The ``Mvedsua``/``VaranRuntime``/``NativeRuntime`` serving it.
    runtime: Any
    app: AppConfig

    def client(self, name: str = "client") -> VirtualClient:
        """A new client connection to the server."""
        return VirtualClient(self.kernel, self.server.address, name)

    def update(self, label: str, at: int, *,
               rules: Optional[RuleSet] = None) -> UpdateAttempt:
        """``request_update`` to ``label`` under the pair's shipped
        rules (``rules`` substitutes another set)."""
        version = self.app.version(label)
        if rules is None:
            rules = self.app.rules_for(self.runtime.current_version,
                                       version.name)
        return self.runtime.request_update(version, at, rules=rules)


def deploy(app_or_name: Union[str, AppConfig], label: str,
           runtime: Callable[..., Any] = Mvedsua,
           **runtime_kwargs: Any) -> Stack:
    """Stand up ``label`` of an app under ``runtime`` — the class
    itself: ``Mvedsua``, ``VaranRuntime`` or ``NativeRuntime``.

    Kernel, server, ``attach``, then the runtime on the server's own
    cost profile; ``Mvedsua`` gets the app's transformers unless
    ``transforms=`` says otherwise.  Every other keyword goes to the
    runtime class untouched.
    """
    config = app(app_or_name) if isinstance(app_or_name, str) \
        else app_or_name
    kernel = VirtualKernel()
    server = config.server(label)
    server.attach(kernel)
    if runtime is Mvedsua:
        runtime_kwargs.setdefault("transforms", config.transforms)
    return Stack(kernel, server,
                 runtime(kernel, server, PROFILES[server.profile_name],
                         **runtime_kwargs), config)


# ---------------------------------------------------------------------------
# The shipped apps (server imports stay inside the builders)
# ---------------------------------------------------------------------------

def _kvstore_config() -> AppConfig:
    from repro.servers.kvstore.rules import kv_rules
    from repro.servers.kvstore.transforms import kv_transforms
    from repro.servers.kvstore.versions import (KVStoreServer,
                                                kvstore_registry)

    def rules_for(old: str, new: str) -> RuleSet:
        if (old, new) == ("1.0", "2.0"):
            return kv_rules()
        return rule_set("")

    def buggy_v2():
        # The chaos campaign's read-path-bug build (answers GET wrongly).
        from repro.chaos.scenarios import BuggyKVStoreV2
        return BuggyKVStoreV2()

    def campaign_plan():
        # A representative slice of the campaign grid: the two faults
        # whose recovery the kvstore scenario's report pins.
        from repro.chaos.plan import Fault, FaultPlan, on_call
        from repro.chaos.scenarios import buggy_v2_factory
        return FaultPlan("kvstore-campaign", (
            Fault("dsu.update", "buggy-version", on_call(1),
                  param={"factory": buggy_v2_factory}),
            Fault("mve.follower", "corrupt-record", on_call(2)),
        ))

    def canary_topology():
        # The python -m repro fleet default: 3 shards x 3 replicas,
        # single-slot waves (replica 0 is the canary).
        from repro.cluster.shard import FleetSpec
        return FleetSpec(shards=3, replicas_per_shard=3, wave_size=1)

    def distributed_topology():
        # The --distributed variant: leader+follower on distinct
        # nodes, with the link budget MVE704 insists on.
        from repro.cluster.fleet import DEFAULT_FLEET_LINK
        from repro.cluster.shard import FleetSpec
        return FleetSpec(shards=3, replicas_per_shard=3, wave_size=1,
                         cross_node_pairs=True,
                         ring_link=DEFAULT_FLEET_LINK)

    def openloop_spec():
        # The python -m repro openloop kvstore workload.
        from repro.workloads.openloop_scenarios import OPENLOOP_SPECS
        return OPENLOOP_SPECS["kvstore"][0]

    return AppConfig(
        name="kvstore",
        versions=kvstore_registry(),
        transforms=kv_transforms(),
        rules_for=rules_for,
        seed_requests=(b"PUT alpha one", b"PUT beta two",
                       b"PUT gamma three"),
        fault_plans=(campaign_plan,),
        fleet_topologies=(canary_topology, distributed_topology),
        workload_specs=(openloop_spec,),
        allow=(
            # §3.3.2: after promotion the new leader executes commands
            # the old follower cannot mirror; the follower diverges and
            # is terminated, exactly as the paper prescribes (only
            # PUT-string has an old-version equivalent, Figure 4b).
            ("MVE201", "updated-leader command PUT-number"),
            ("MVE201", "updated-leader command PUT-date"),
            ("MVE201", "updated-leader command TYPE"),
            # The prover reaches the same §3.3.2 configurations and
            # confirms them dynamically: the old follower diverges on
            # the new-only commands and is terminated, by design.
            ("MVE801", "updated-leader command PUT-number"),
            ("MVE801", "updated-leader command PUT-date"),
            ("MVE801", "updated-leader command TYPE"),
        ),
        server_factory=KVStoreServer,
        candidates={"2.0-buggy": buggy_v2},
    )


def _redis_config() -> AppConfig:
    from repro.servers.redis.rules import redis_rules
    from repro.servers.redis.server import RedisServer
    from repro.servers.redis.transforms import redis_transforms
    from repro.servers.redis.versions import (REDIS_VERSIONS,
                                              redis_registry, redis_version)

    def e1_plan():
        from repro.chaos.plans import e1_new_code_plan
        return e1_new_code_plan()

    def openloop_spec():
        # The python -m repro openloop redis workload (bursty MMPP).
        from repro.workloads.openloop_scenarios import OPENLOOP_SPECS
        return OPENLOOP_SPECS["redis"][0]

    return AppConfig(
        name="redis",
        # The releases are the builds every experiment runs: without
        # revision 7fb16bac's HMGET crash, which ships as a candidate
        # build of each release (§6.2's new-code error).
        versions=redis_registry(hmget_bug=False),
        transforms=redis_transforms(),
        rules_for=redis_rules,
        seed_requests=(b"SET alpha one", b"SET beta two",
                       b"SET gamma three"),
        fault_plans=(e1_plan,),
        workload_specs=(openloop_spec,),
        server_factory=RedisServer,
        candidates={f"{name}-7fb16bac":
                    partial(redis_version, name, hmget_bug=True)
                    for name in REDIS_VERSIONS},
    )


def _vsftpd_config() -> AppConfig:
    from repro.servers.vsftpd.rules import vsftpd_rules
    from repro.servers.vsftpd.server import VsftpdServer
    from repro.servers.vsftpd.transforms import vsftpd_transforms
    from repro.servers.vsftpd.versions import vsftpd_registry

    return AppConfig(
        name="vsftpd",
        versions=vsftpd_registry(),
        transforms=vsftpd_transforms(),
        rules_for=vsftpd_rules,
        # Vsftpd is essentially stateless (§5.1): the initial heap's
        # allocation counters are already representative.
        seed_requests=(),
        server_factory=VsftpdServer,
    )


def _memcached_config() -> AppConfig:
    from repro.servers.memcached.rules import memcached_rules
    from repro.servers.memcached.server import MemcachedServer
    from repro.servers.memcached.transforms import memcached_transforms
    from repro.servers.memcached.versions import memcached_registry

    def e2_plan():
        from repro.chaos.plans import e2_transform_plan
        return e2_transform_plan()

    def e3_plan():
        import random
        from repro.chaos.plans import e3_timing_plan
        return e3_timing_plan(random.Random(1))

    return AppConfig(
        name="memcached",
        versions=memcached_registry(),
        transforms=memcached_transforms(),
        rules_for=memcached_rules,
        seed_requests=(b"set alpha 0 0 3\r\none",
                       b"set beta 0 0 3\r\ntwo"),
        fault_plans=(e2_plan, e3_plan),
        server_factory=MemcachedServer,
    )


def _snort_config() -> AppConfig:
    from repro.servers.snort.versions import (SnortServer, snort_registry,
                                              snort_transforms)

    return AppConfig(
        name="snort",
        versions=snort_registry(),
        transforms=snort_transforms(),
        # 1.0 and 1.1 agree byte-for-byte on rule-free traffic; the
        # interesting divergence is semantic, not syscall-shaped.
        rules_for=lambda old, new: rule_set(""),
        seed_requests=(b"PKT 10.0.0.1 probe", b"PKT 10.0.0.2 probe"),
        server_factory=SnortServer,
    )


_BUILDERS: Dict[str, Callable[[], AppConfig]] = {
    "kvstore": _kvstore_config,
    "redis": _redis_config,
    "vsftpd": _vsftpd_config,
    "memcached": _memcached_config,
    "snort": _snort_config,
}


@cache
def app(name: str) -> AppConfig:
    """The shipped config for ``name``, built on first use, once
    (:class:`~repro.errors.NoUpdatePath` if none is shipped)."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise NoUpdatePath(
            f"no app {name!r} (known: {', '.join(_BUILDERS)})")
    return builder()


def default_catalog() -> Dict[str, AppConfig]:
    """Configs for every server shipped in :mod:`repro.servers`."""
    return {name: app(name) for name in _BUILDERS}


def load_catalog(path: str) -> Dict[str, AppConfig]:
    """Load a catalog from a Python file exposing ``catalog()``."""
    spec = importlib.util.spec_from_file_location("mvelint_catalog", path)
    if spec is None or spec.loader is None:
        raise ValueError(f"cannot load catalog from {path!r}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    factory = getattr(module, "catalog", None)
    if factory is None:
        raise ValueError(f"{path!r} does not define a catalog() function")
    return factory()
