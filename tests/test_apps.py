"""The app catalog (``repro.apps``) as the test's parameter list.

Every label of every shipped app is deployed, recorded and replayed
against itself; every adjacent release pair is replayed old-recording →
new-release under the shipped rules.  Plus the guard that keeps the
wiring single: outside ``repro/apps.py`` and ``repro/servers/`` nothing
under ``src/repro`` imports a server class or a shipped rules /
transforms / registry factory.
"""

import ast
import os
import re

import pytest

from repro.apps import AppConfig, Stack, app, default_catalog, deploy
from repro.core import Mvedsua
from repro.dsu.transform import TransformRegistry
from repro.dsu.version import ServerVersion, VersionRegistry
from repro.errors import NoUpdatePath
from repro.mve import VaranRuntime
from repro.mve.dsl import Direction, RuleSet
from repro.replay.recorder import StreamRecorder
from repro.replay.engine import replay_stream
from repro.replay.stream import read_stream
from repro.servers.base import Server
from repro.servers.native import NativeRuntime
from repro.sites import observing

CATALOG = default_catalog()
LABELS = [(name, label) for name, config in CATALOG.items()
          for label in config.labels()]
PAIRS = [(name, old, new) for name, config in CATALOG.items()
         for old, new in config.versions.update_pairs(name)]


def _recording(config, label, tmp_path):
    """``seed_requests`` (one NOOP where the app lists none) served by
    ``deploy(config, label, VaranRuntime)``, as a parsed stream."""
    recorder = StreamRecorder(config.name)
    with observing(recorder=recorder):
        stack = deploy(config, label, VaranRuntime)
    client = stack.client()
    for index, request in enumerate(config.seed_requests or (b"NOOP",)):
        client.command(stack.runtime, request, now=index * 10**9)
    path = str(tmp_path / "stream.jsonl")
    recorder.write(path)
    return read_stream(path)


def test_the_catalog_is_the_parameter_list():
    assert len(LABELS) == 31 and len(PAIRS) == 21
    assert {name: len(config.labels())
            for name, config in CATALOG.items()} == {
        "kvstore": 3, "redis": 8, "vsftpd": 14, "memcached": 4, "snort": 2}


@pytest.mark.parametrize("name,label", LABELS)
def test_every_label_replays_its_own_recording(name, label, tmp_path):
    config = CATALOG[name]
    before = repr(vars(config.version(label)))
    stream = _recording(config, label, tmp_path)
    assert stream.app == name
    report = replay_stream(stream, against=label)
    assert report.outcome == "match", report.divergence
    assert report.iterations_replayed == report.iterations > 0
    # Versions are shared between stacks: serving must not write them.
    assert repr(vars(config.version(label))) == before


@pytest.mark.parametrize("name,old,new", PAIRS)
def test_every_adjacent_pair_replays_under_the_shipped_rules(
        name, old, new, tmp_path):
    stream = _recording(CATALOG[name], old, tmp_path)
    report = replay_stream(stream, against=new)
    assert report.outcome == "match", report.divergence
    fires = {("redis", "2.0.0", "2.0.1"), ("vsftpd", "1.1.1", "1.1.2"),
             ("vsftpd", "1.2.2", "2.0.0")}
    assert (report.rules_fired > 0) == ((name, old, new) in fires)


# ---------------------------------------------------------------------------
# AppConfig lookups
# ---------------------------------------------------------------------------


class TestAppConfig:
    def test_labels_are_releases_then_candidates(self):
        assert app("kvstore").labels() == ("1.0", "2.0", "2.0-buggy")
        redis = app("redis")
        assert redis.labels()[:4] == ("2.0.0", "2.0.1", "2.0.2", "2.0.3")
        assert redis.labels()[4:] == tuple(
            f"{release}-7fb16bac" for release in redis.labels()[:4])

    def test_redis_releases_are_the_builds_the_experiments_run(self):
        redis = app("redis")
        assert not redis.version("2.0.1").has_hmget_bug
        buggy = redis.version("2.0.1-7fb16bac")
        assert buggy.has_hmget_bug and buggy.name == "2.0.1"

    def test_unknown_names_are_typed_errors(self):
        with pytest.raises(NoUpdatePath, match="no app 'nginx'"):
            app("nginx")
        with pytest.raises(NoUpdatePath, match="kvstore-9.9"):
            app("kvstore").version("9.9")
        with pytest.raises(NoUpdatePath):
            deploy("kvstore", "9.9")

    def test_shipped_configs_are_built_once(self):
        assert app("vsftpd") is app("vsftpd") is default_catalog()["vsftpd"]

    def test_server_forwards_keywords_to_the_server_class(self):
        server = app("kvstore").server("2.0", address=("10.9.9.9", 7000))
        assert type(server).__name__ == "KVStoreServer"
        assert (server.version.name, server.address) == \
            ("2.0", ("10.9.9.9", 7000))
        assert server.kernel is None  # not attached

    def test_stage_for_orients_the_pair(self):
        kvstore = app("kvstore")
        assert kvstore.stage_for("1.0", "1.0") == (None, None)
        # A candidate build replays under its release's rules.
        assert kvstore.stage_for("2.0", "2.0-buggy") == (None, None)
        rules, direction = kvstore.stage_for("1.0", "2.0-buggy")
        assert direction is Direction.OUTDATED_LEADER and len(rules) == 3
        rules, direction = kvstore.stage_for("2.0", "1.0")
        assert direction is Direction.UPDATED_LEADER and len(rules) == 3
        with pytest.raises(NoUpdatePath):
            kvstore.stage_for("1.0", "9.9")

    def test_a_catalog_without_a_server_factory_gets_the_generic_server(self):
        class Echo(ServerVersion):
            app, name = "echo", "1"

            def initial_heap(self):
                return {}

            def handle(self, heap, request, session=None, io=None):
                return [request + b"\r\n"]

        versions = VersionRegistry()
        versions.register(Echo())
        config = AppConfig("echo", versions, TransformRegistry(),
                           lambda old, new: RuleSet())
        stack = deploy(config, "1")
        assert type(stack.server) is Server
        assert stack.client().command(stack.runtime, b"hi") == b"hi\r\n"


class TestDeploy:
    def test_the_runtime_is_the_class_it_was_handed(self):
        assert isinstance(deploy("kvstore", "1.0").runtime, Mvedsua)
        assert isinstance(deploy("kvstore", "1.0", VaranRuntime).runtime,
                          VaranRuntime)
        native = deploy("redis", "2.0.0", NativeRuntime, with_kitsune=True)
        assert isinstance(native.runtime, NativeRuntime)
        assert native.runtime.with_kitsune

    def test_the_profile_is_the_servers_own(self):
        assert deploy("vsftpd", "1.1.0").runtime.profile.name == \
            "vsftpd-small"
        assert deploy("redis", "2.0.0",
                      VaranRuntime).runtime.profile.name == "redis"

    def test_keywords_reach_the_runtime_and_transforms_can_be_overridden(self):
        own = TransformRegistry()
        stack = deploy("kvstore", "1.0", ring_capacity=8, transforms=own)
        assert stack.runtime.runtime.ring.capacity == 8
        assert stack.runtime.kitsune.transforms is own
        assert deploy("kvstore", "1.0").runtime.kitsune.transforms \
            is app("kvstore").transforms

    def test_update_uses_the_pairs_shipped_rules(self):
        stack = deploy("kvstore", "1.0")
        assert isinstance(stack, Stack) and stack.app is app("kvstore")
        client = stack.client("c")
        client.command(stack.runtime, b"PUT k v")
        assert stack.update("2.0", 10**9).ok
        assert [rule.name for rule in stack.runtime.runtime.rules.rules] \
            == ["put_typed", "type_cmd", "put_string"]
        # Rule 1 redirects the typed PUT: no divergence.
        client.command(stack.runtime, b"PUT-number pi 3", now=2 * 10**9)
        assert stack.runtime.runtime.last_divergence is None

    def test_update_takes_a_substitute_rule_set(self):
        stack = deploy("kvstore", "1.0")
        none = RuleSet()
        assert stack.update("2.0", 10**9, rules=none).ok
        assert stack.runtime.runtime.rules is none


# ---------------------------------------------------------------------------
# The wiring stays single
# ---------------------------------------------------------------------------

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")

#: What a module outside ``repro/apps.py`` and ``repro/servers/`` may
#: not import from ``repro.servers.<app>``: the wiring itself.
WIRING = re.compile(r"Server$|_rules(_from_dsl)?$|_transforms$|_registry$")

#: Everything else such a module does import — fault material and the
#: paper's reference tables — by module and name.
ALLOWED = {
    "chaos/scenarios.py": {"KVStoreV2"},            # BuggyKVStoreV2's base
    "chaos/campaign.py": {"xform_drop_table"},      # dsu.transform fault
    "chaos/plans.py": {"xform_free_libevent"},      # the E2 fault
    "scenarios.py": {"xform_drop_table"},           # trace faults
    "bench/faults.py": {"MANY_CLIENTS_THRESHOLD"},  # E2's client count
    "bench/table1.py": {"TABLE1_RULE_COUNTS", "RULE_COUNTS"},
    "bench/ablations.py": {                         # the TTST matrix
        "KVStoreV2", "xform_1_to_2", "xform_2_to_1",
        "xform_corrupt_values", "xform_drop_table",
        "xform_uncorrupt_values", "xform_uninitialised_backward",
        "xform_uninitialised_type"},
}


def _sources(*owners):
    """``(module, source)`` of every file under ``src/repro`` outside
    ``servers/`` and the ``owners``."""
    for folder, _, files in os.walk(SRC):
        for filename in files:
            path = os.path.join(folder, filename)
            module = os.path.relpath(path, SRC).replace(os.sep, "/")
            if filename.endswith(".py") and module not in owners \
                    and not module.startswith("servers/"):
                with open(path, encoding="utf-8") as handle:
                    yield module, handle.read()


def _server_imports():
    """``{module: {names}}`` imported from ``repro.servers.<app>``
    anywhere under ``src/repro`` outside the catalog and the servers."""
    found = {}
    for module, source in _sources("apps.py"):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and re.match(
                    r"repro\.servers\.(kvstore|redis|vsftpd|memcached"
                    r"|snort)\b", node.module or ""):
                found.setdefault(module, set()).update(
                    alias.name for alias in node.names)
    return found


def test_no_module_outside_the_catalog_wires_a_server():
    found = _server_imports()
    wiring = {module: sorted(name for name in names if WIRING.search(name))
              for module, names in found.items()}
    assert {m: n for m, n in wiring.items() if n} == {}
    assert found == ALLOWED
    assert len(found) <= 8


def test_runtime_constructions_outside_their_owners():
    """``deploy()`` is where runtimes are built; what is left is listed
    here with its reason."""
    pattern = re.compile(r"\b(Mvedsua|VaranRuntime|NativeRuntime)\(")
    found = [module
             for module, source in _sources("apps.py", "core/mvedsua.py",
                                            "mve/varan.py",
                                            "cluster/node.py")
             for _ in pattern.finditer(source)]
    # E3 part 1 builds a Memcached server *without* the paper's LibEvent
    # adaptation — a server keyword, which deploy() does not take.
    assert found == ["bench/faults.py"]


def test_the_replay_docs_label_table_is_the_catalogs():
    """``docs/replay.md`` lists what a stream can be replayed
    ``--against``: every label of every app, nothing else."""
    docs = os.path.join(os.path.dirname(__file__), "..", "docs", "replay.md")
    with open(docs, encoding="utf-8") as handle:
        rows = {line.split("|")[1].strip(" `"): line for line in handle
                if line.startswith("| `")}
    assert set(rows) == set(CATALOG)
    for name, config in CATALOG.items():
        releases = config.versions.releases(name)
        listed = set(re.findall(r"`([^`]+)`", rows[name])) - {name}
        candidates = {label.replace(release, "<release>")
                      if name == "redis" else label
                      for label in config.candidates
                      for release in releases if label.startswith(release)}
        assert listed == set(releases) | candidates, name
