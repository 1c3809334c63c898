"""Syscall-stream record/replay (``repro-stream/1``) and parallel
campaign execution: stream round-trips, offline divergence forensics,
byte-identical sharded reports, and the perf ``--diff`` gauge
gate."""

import functools
import json
import operator

import pytest

from repro.apps import deploy
from repro.chaos.campaign import default_grid, probe_site_calls, run_campaign
from repro.cli import main
from repro.chaos.scenarios import BuggyKVStoreV2, run_kv_update_scenario
from repro.errors import SimulationError
from repro.mve import VaranRuntime
from repro.net import VirtualKernel
from repro.perf.diff import diff_bench, gate_failures
from repro.perf.harness import SCHEMA, run_scenarios, validate_bench
from repro.perf.harness import GAUGES
from repro.replay.engine import replay_file
from repro.parallel import map_items, resolve_workers, shard_round_robin
from repro.replay.recorder import StreamRecorder
from repro.replay.stream import (StreamError, frame_line, read_stream,
                                 validate_stream_file, write_stream)
from repro.servers.kvstore import (KVStoreServer, KVStoreV1, kv_rules,
                                   xform_1_to_2)
from repro.sites import OBS, observing
from repro.syscalls.costs import PROFILES
from repro.workloads import VirtualClient


#: A well-framed stream line whose JSON nests past what the interpreter
#: can decode.
_DEEP_LINE = b"%08x " % 200_000 + b"[" * 100_000 + b"]" * 100_000 + b"\n"


@pytest.fixture(scope="module")
def kv_stream(tmp_path_factory):
    """A recorded kvstore update lifecycle (the chaos golden run)."""
    path = tmp_path_factory.mktemp("streams") / "kv.jsonl"
    recorder = StreamRecorder(scenario="kvstore")
    with observing(recorder=recorder):
        run_kv_update_scenario()
    recorder.write(str(path))
    return str(path)


# ---------------------------------------------------------------------------
# The stream artifact
# ---------------------------------------------------------------------------


class TestStreamArtifact:
    def test_recorded_stream_round_trips(self, kv_stream):
        stream = read_stream(kv_stream)
        assert stream.app == "kvstore"
        assert stream.initial_version == "1.0"
        assert stream.record_count() > 0
        assert len(stream.iterations()) > 0
        # The update lifecycle leaves at least one control entry.
        assert any(e["type"] == "control" for e in stream.entries)
        assert validate_stream_file(kv_stream) == []

    def test_truncated_stream_is_rejected(self, kv_stream, tmp_path):
        lines = open(kv_stream, encoding="utf-8").read().splitlines()
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(StreamError, match="footer"):
            read_stream(str(truncated))
        assert validate_stream_file(str(truncated)) != []

    def test_corrupt_length_prefix_is_rejected(self, kv_stream, tmp_path):
        lines = open(kv_stream, encoding="utf-8").read().splitlines()
        lines[1] = "zzzzzzzz " + lines[1].split(" ", 1)[1]
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(StreamError, match="length prefix"):
            read_stream(str(corrupt))

    @pytest.mark.parametrize("edit, complaint", [
        # What a default StreamRecorder() writes (an empty scenario
        # included) is valid for `replay` and `--validate` alike.
        pytest.param(lambda header, entry: None, None,
                     id="default-recorder"),
        pytest.param(lambda header, entry: entry.update(records=5),
                     "entry 0 'records' is 5, expected a list",
                     id="records"),
        pytest.param(lambda header, entry: entry["records"][0].update(fd="x"),
                     "entry 0 'records'[0] 'fd' is 'x', expected an int",
                     id="fd"),
        pytest.param(lambda header, entry: entry["records"][0].update(data=5),
                     "entry 0 'records'[0] 'data' is 5, expected a latin-1 "
                     "string", id="data"),
        pytest.param(lambda header, entry: entry["records"][0].update(aux=3),
                     "entry 0 'records'[0] 'aux' is 3, expected an object",
                     id="aux"),
        pytest.param(lambda header, entry:
                     entry["records"][0].update(result={"b": 5}),
                     "entry 0 'records'[0] 'result' 'b' is 5, expected a "
                     "latin-1 string", id="result"),
        pytest.param(lambda header, entry:
                     entry["records"].__setitem__(0, [1, 2]),
                     "entry 0 'records'[0] is [1, 2], expected an object",
                     id="record"),
        pytest.param(lambda header, entry: entry.update(at="x"),
                     "entry 0 'at' is 'x', expected an int", id="at"),
        pytest.param(lambda header, entry: header.update(listen_fd="a"),
                     "header 'listen_fd' is 'a', expected an int",
                     id="listen_fd"),
        # Below the JSON layer (an edit may return a rewrite of the
        # file's bytes): both were tracebacks out of the reader.
        pytest.param(lambda header, entry: lambda data: b"\xff" + data,
                     "not UTF-8 text ('utf-8' codec can't decode byte 0xff "
                     "in position 0: invalid start byte)", id="not-utf8"),
        pytest.param(lambda header, entry: lambda data: _DEEP_LINE + data,
                     "line 0: bad JSON payload: nests too deeply to decode",
                     id="nested-past-decoding"),
    ])
    def test_replay_and_validate_accept_and_reject_the_same_files(
            self, edit, complaint, tmp_path, capsys):
        """One meaning of valid: a well-framed stream with a misshapen
        header, entry or record is one typed line and exit 2 from both
        commands — none of these reached ``--validate``'s old checks
        without a traceback, and plain ``replay`` ran none of them."""
        recorder = StreamRecorder()
        with observing(recorder=recorder):
            run_kv_update_scenario()
        assert recorder.entries[0]["type"] == "iter"
        rewrite = edit(recorder.header, recorder.entries[0])
        footer = {"type": "footer", "iterations": recorder.iterations,
                  "records": recorder.records, "controls": sum(
                      entry["type"] == "control"
                      for entry in recorder.entries)}
        path = tmp_path / "stream.jsonl"
        data = "".join(
            frame_line(entry) + "\n" for entry in
            [recorder.header, *recorder.entries, footer]).encode("utf-8")
        path.write_bytes(rewrite(data) if rewrite else data)
        expected = 0 if complaint is None else 2
        assert main(["replay", str(path)]) == expected
        replayed = capsys.readouterr().err
        assert main(["replay", str(path), "--validate"]) == expected
        validated = capsys.readouterr().err
        if complaint is None:
            assert (replayed, validated) == ("", "")
        else:
            if not complaint.startswith("line "):    # framing names lines
                complaint = f"{path}: {complaint}"
            assert replayed == f"replay failed: {complaint}\n"
            assert validated == f"invalid stream: {complaint}\n"


# ---------------------------------------------------------------------------
# The recorder
# ---------------------------------------------------------------------------


def _fake_runtime(version="1.0"):
    class Obj:
        pass
    runtime = Obj()
    runtime.profile = Obj()
    runtime.profile.name = "kvstore"
    runtime.leader = Obj()
    runtime.leader.version_name = version
    runtime.leader.server = Obj()
    runtime.leader.server.version = Obj()
    runtime.leader.server.version.app = "kvstore"
    runtime.ring = Obj()
    runtime.ring.capacity = 64
    return runtime


class TestRecorder:
    def test_disabled_by_default_and_costs_nothing(self):
        assert OBS.recorder is None
        before = StreamRecorder.recorded_total
        run_kv_update_scenario()
        assert StreamRecorder.recorded_total == before

    def test_first_runtime_wins_the_claim(self):
        recorder = StreamRecorder(scenario="t")
        first, second = _fake_runtime(), _fake_runtime("2.0")
        assert recorder.claim(first) is True
        assert recorder.claim(second) is False
        # Idempotent for the holder.
        assert recorder.claim(first) is True
        assert recorder.header["initial_version"] == "1.0"

    def test_unclaimed_recorder_refuses_to_write(self, tmp_path):
        with pytest.raises(ValueError, match="never claimed"):
            StreamRecorder().write(str(tmp_path / "empty.jsonl"))


# ---------------------------------------------------------------------------
# Offline replay
# ---------------------------------------------------------------------------


class TestReplay:
    def test_same_version_replays_with_zero_divergences(self, kv_stream):
        report = replay_file(kv_stream)
        assert report.ok
        assert report.outcome == "match"
        assert report.iterations_replayed == report.iterations
        assert report.records_replayed > 0
        assert report.as_dict()["schema"] == "repro-replay/1"

    def test_newer_version_replays_through_the_rules(self, kv_stream):
        report = replay_file(kv_stream, against="2.0")
        assert report.ok
        assert report.iterations_replayed == report.iterations

    def test_buggy_candidate_diverges_with_forensics(self, kv_stream):
        report = replay_file(kv_stream, against="2.0-buggy")
        assert report.outcome == "divergence"
        assert not report.ok
        assert report.divergence["detail"]
        assert report.forensics is not None
        bundle = report.forensics.as_dict()
        assert bundle["reason"]
        assert bundle["version"] == "2.0-buggy"
        # The bundle carries the records around the mismatch.
        assert bundle["expected_records"]
        assert report.forensics.summary()

    def test_offline_replay_reports_the_live_divergence(self, tmp_path):
        """Oracle: a live run whose buggy follower diverges, recorded,
        then replayed offline against the same build — both go through
        the one follower step and name the same record pair."""
        kernel = VirtualKernel()
        server = KVStoreServer(KVStoreV1())
        server.attach(kernel)
        recorder = StreamRecorder(scenario="kvstore")
        with observing(recorder=recorder):
            runtime = VaranRuntime(kernel, server, PROFILES["kvstore"])
        client = VirtualClient(kernel, server.address)
        client.command(runtime, b"PUT k v1")
        child = server.fork()
        child.apply_version(BuggyKVStoreV2(),
                            xform_1_to_2(dict(child.heap)))
        runtime.fork_follower(10**9, server=child, rules=kv_rules())
        client.command(runtime, b"PUT other v2", now=2 * 10**9)
        client.command(runtime, b"GET k", now=3 * 10**9)
        runtime.drain_follower()
        live = runtime.last_forensics
        assert live is not None and not runtime.in_mve_mode

        path = tmp_path / "buggy.jsonl"
        recorder.write(str(path))
        report = replay_file(str(path), against="2.0-buggy")
        assert report.outcome == "divergence"
        offline = report.forensics
        assert (offline.expected, offline.actual) == \
            (live.expected, live.actual)
        assert offline.expected_records == live.expected_records
        assert offline.issued_records == live.issued_records
        assert (offline.rule_window, offline.rules_fired) == \
            (live.rule_window, live.rules_fired)

    def test_cli_exit_codes(self, kv_stream, tmp_path, capsys):
        assert main(["replay", kv_stream]) == 0
        assert main(["replay", kv_stream, "--against", "2.0-buggy"]) == 1
        assert main(["replay", str(tmp_path / "missing.jsonl")]) == 2
        assert main(["replay", kv_stream, "--validate"]) == 0
        out = capsys.readouterr().out
        assert "divergence" in out

    def test_cli_writes_json_report(self, kv_stream, tmp_path, capsys):
        out = tmp_path / "replay.json"
        assert main(["replay", kv_stream, "--json", "--out",
                     str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-replay/1"
        assert payload["outcome"] == "match"


def _record(app, label, commands, path):
    """Record ``commands`` served by ``deploy(app, label)``; returns the
    stream path."""
    recorder = StreamRecorder(scenario=app)
    with observing(recorder=recorder):
        stack = deploy(app, label)
    client = stack.client()
    for index, command in enumerate(commands):
        client.command(stack.runtime, command, now=index * 10**9)
    recorder.write(str(path))
    return str(path)


class TestReplayRedrivesTheRecordedBinary:
    """The catalog builds what was recorded: before ``repro.apps`` the
    replay registry built Redis *with* revision 7fb16bac, knew no
    Memcached, and a Snort stream was stamped (and re-driven as)
    kvstore."""

    def test_redis_replays_its_own_build_and_catches_7fb16bac(
            self, tmp_path, capsys):
        path = _record("redis", "2.0.0",
                       [b"SET wrongtype value", b"HMGET wrongtype f",
                        b"GET wrongtype"], tmp_path / "redis.jsonl")
        own = replay_file(path)
        assert own.outcome == "match"
        assert (own.iterations_replayed, own.iterations) == (4, 4)
        assert main(["replay", path]) == 0
        # The shadow-testing story kvstore 2.0-buggy tells: the bad
        # build crashes offline, on the recorded HMGET.
        buggy = replay_file(path, against="2.0.0-7fb16bac")
        assert buggy.outcome == "crash"
        assert buggy.divergence["iteration"] == 2
        assert "HMGET" in buggy.divergence["detail"]
        assert main(["replay", path, "--against", "2.0.0-7fb16bac"]) == 1

    def test_memcached_is_replayable(self, tmp_path):
        path = _record("memcached", "1.2.4",
                       [b"set k 0 0 1\r\nv", b"get k"],
                       tmp_path / "memcached.jsonl")
        assert read_stream(path).app == "memcached"
        assert replay_file(path).outcome == "match"
        assert replay_file(path, against="1.2.5").outcome == "match"

    def test_snort_is_recorded_and_replayed_as_snort(self, tmp_path):
        path = _record("snort", "1.0",
                       [b"PKT 10.0.0.1 probe", b"PKT 10.0.0.1 exploit",
                        b"STATS"], tmp_path / "snort.jsonl")
        stream = read_stream(path)
        assert stream.app == "snort"
        # The cost profile is still the borrowed one; the app is not
        # guessed from it any more.
        assert stream.header["profile"] == "kvstore"
        report = replay_file(path)
        assert (report.app, report.outcome) == ("snort", "match")

    def test_unknown_app_or_label_exits_2_with_one_line(
            self, kv_stream, tmp_path, capsys):
        assert main(["replay", kv_stream, "--against", "9.9"]) == 2
        err = capsys.readouterr().err
        assert err == "replay failed: unknown version kvstore-9.9\n"
        stream = read_stream(kv_stream)
        alien = str(tmp_path / "alien.jsonl")
        write_stream(alien, {**stream.header, "app": "nginx"},
                     stream.entries)
        assert main(["replay", alien]) == 2
        err = capsys.readouterr().err
        assert err.startswith("replay failed: no app 'nginx' (known: ")
        assert err.count("\n") == 1

    def test_a_keyerror_inside_replay_is_not_an_unknown_app(
            self, kv_stream, monkeypatch):
        """Exit 2 is for the two catalog lookups; a candidate that
        raises while serving the recording is a bug and surfaces."""
        def handle(self, heap, request, session=None, io=None):
            raise KeyError("handler bug")
        monkeypatch.setattr(KVStoreV1, "handle", handle)
        with pytest.raises(KeyError, match="handler bug"):
            main(["replay", kv_stream])

    def test_a_candidate_build_recording_names_its_release(self, tmp_path):
        """A stream stamps release names: recorded from ``2.0-buggy`` it
        says ``2.0``, so re-driving the build that was recorded takes
        ``--against 2.0-buggy`` (docs/replay.md)."""
        path = _record("kvstore", "2.0-buggy", [b"PUT k v", b"GET k"],
                       tmp_path / "buggy.jsonl")
        assert read_stream(path).initial_version == "2.0"
        release = replay_file(path)
        assert (release.against, release.outcome) == ("2.0", "divergence")
        assert replay_file(path, against="2.0-buggy").outcome == "match"


class TestTraceRecordRoundTrip:
    def test_fig6_records_and_replays_clean(self, tmp_path, capsys):
        stream = tmp_path / "STREAM_fig6.jsonl"
        trace = tmp_path / "TRACE_fig6.jsonl"
        assert main(["trace", "fig6", "--quick", "--out", str(trace),
                     "--record", str(stream)]) == 0
        assert "wrote stream" in capsys.readouterr().out
        assert validate_stream_file(str(stream)) == []
        report = replay_file(str(stream))
        assert report.ok
        # The recorded update promotes 2.0.0 -> 2.0.1 mid-stream.
        assert report.final_version_recorded == "2.0.1"
        # The newer version also replays clean, through the rules.
        follower = replay_file(str(stream), against="2.0.1")
        assert follower.ok
        assert follower.rules_fired > 0


# ---------------------------------------------------------------------------
# Parallel campaign execution
# ---------------------------------------------------------------------------


class TestParallelCampaign:
    def test_sharded_report_is_byte_identical_to_serial(self):
        serial = run_campaign("kvstore", seed=1, max_cells=16)
        parallel = run_campaign("kvstore", seed=1, max_cells=16, workers=2)
        assert json.dumps(serial, sort_keys=True) \
            == json.dumps(parallel, sort_keys=True)

    def test_oncall_cap_widens_and_narrows_the_grid(self):
        calls = probe_site_calls()
        narrow = default_grid(calls, 1, oncall_cap=2)
        default = default_grid(calls, 1)
        assert len(narrow) < len(default)

    def test_campaign_validates_its_knobs(self):
        with pytest.raises(SimulationError, match="workers"):
            run_campaign("kvstore", max_cells=2, workers=0)
        with pytest.raises(SimulationError, match="oncall-cap"):
            run_campaign("kvstore", max_cells=2, oncall_cap=0)

    def test_cli_workers_and_record(self, tmp_path, capsys):
        report_path = tmp_path / "chaos.json"
        stream_path = tmp_path / "stream.jsonl"
        code = main(["chaos", "kvstore", "--max-cells", "6", "--workers", "2",
                     "--record", str(stream_path),
                     "--report", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 workers" in out
        assert "wrote stream" in out
        assert json.loads(report_path.read_text())["cells"] == 6
        # The recorded golden baseline replays clean.
        assert replay_file(str(stream_path)).ok

    def test_cli_rejects_bad_workers_and_cap(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "kvstore", "--workers", "0"])
        with pytest.raises(SystemExit):
            main(["chaos", "kvstore", "--oncall-cap", "0"])

    def test_resolve_workers(self):
        assert resolve_workers("auto") >= 1
        assert resolve_workers("3") == 3
        assert resolve_workers(None) >= 1
        for bad in ("0", "-2", "many"):
            with pytest.raises(ValueError):
                resolve_workers(bad)

    def test_shard_round_robin_partitions_everything(self):
        shards = shard_round_robin(7, 3)
        assert sorted(i for shard in shards for i in shard) == list(range(7))
        assert all(shard for shard in shards)
        # More workers than items: no empty shards.
        assert shard_round_robin(2, 8) == [[0], [1]]

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    @pytest.mark.parametrize("workers", [1, 2, 9])
    def test_merge_returns_results_in_item_order(self, workers, method):
        triple = functools.partial(operator.mul, 3)
        assert map_items(triple, 5, workers, method=method) \
            == [0, 3, 6, 9, 12]


# ---------------------------------------------------------------------------
# The perf payload + the --diff gauge gate
# ---------------------------------------------------------------------------


def _bench_payload(stalls=7, ops=10):
    gauges = dict.fromkeys(GAUGES, 1)
    gauges["ring_stalls"] = stalls
    return {
        "_meta": {"schema": SCHEMA, "quick": False, "ops": {"s": ops},
                  "scenario_order": ["s"]},
        "s": gauges,
    }


class TestPerfParallel:
    def test_bench_meta_records_the_run_shape(self):
        payload = run_scenarios(["fig7-ring-2^5"], ops=40, quick=True)
        assert payload["_meta"] == {
            "schema": "repro-perf/5", "quick": True,
            "ops": {"fig7-ring-2^5": 40},
            "scenario_order": ["fig7-ring-2^5"]}
        assert validate_bench(payload) == []

    def test_validate_bench_catches_tampering(self):
        payload = _bench_payload()
        assert validate_bench(payload) == []
        del payload["_meta"]["scenario_order"]
        assert any("scenario_order" in p for p in validate_bench(payload))
        payload["s"]["ring_stalls"] = 0.5
        assert any("ring_stalls" in p for p in validate_bench(payload))
        payload["_meta"]["schema"] = "repro-perf/1"
        assert any("schema" in p for p in validate_bench(payload))
        # Misshapen payloads are problems too, not exceptions.
        assert validate_bench([]) == ["not a JSON object"]
        payload = _bench_payload()
        payload["_meta"]["scenario_order"] = [1, "a"]
        assert any("scenario_order" in p for p in validate_bench(payload))


class TestDiffGate:
    def test_identical_payloads_pass(self):
        deltas = diff_bench(_bench_payload(), _bench_payload())
        assert [d.status for d in deltas] == ["ok"]
        assert gate_failures(deltas) == []

    def test_any_drifted_gauge_is_a_mismatch(self):
        deltas = diff_bench(_bench_payload(stalls=8), _bench_payload())
        assert deltas[0].status == "gauge-mismatch"
        assert gate_failures(deltas) \
            == ["s: gauge 'ring_stalls' changed 7 -> 8"]

    def test_missing_scenario_fails_and_new_passes(self):
        baseline = _bench_payload()
        current = _bench_payload()
        current["extra-scenario"] = dict(current["s"])
        deltas = diff_bench(current, baseline)
        assert {d.name: d.status for d in deltas} \
            == {"s": "ok", "extra-scenario": "new"}
        assert gate_failures(deltas) == []
        missing = {"_meta": baseline["_meta"]}
        deltas = diff_bench(missing, baseline)
        assert deltas[0].status == "missing"
        assert deltas[0].problems
        # A --scenario run is held only to what it ran — but a diff
        # left with nothing to compare still fails.
        assert diff_bench(missing, baseline, subset=True) == []
        assert gate_failures([]) != []

    def test_ops_change_skips_the_comparison(self):
        current = _bench_payload(stalls=999, ops=50)
        deltas = diff_bench(current, _bench_payload(stalls=7, ops=10))
        assert deltas[0].status == "ops-changed"
        assert deltas[0].problems == []
        assert any("no scenario was compared" in failure
                   for failure in gate_failures(deltas))
