"""Tests for workload generators and the FTP client."""

import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.net import VirtualKernel
from repro.servers.native import NativeRuntime
from repro.servers.redis import RedisServer, redis_version
from repro.servers.memcached import MemcachedServer, memcached_version
from repro.servers.vsftpd import VsftpdServer, vsftpd_version
from repro.syscalls.costs import PROFILES
from repro.workloads import VirtualClient
from repro.sim.rng import RngStreams
from repro.workloads.ftpclient import FtpClient
from repro.workloads.keyspace import UniformKeys
from repro.workloads.memtier import FtpBenchSpec, MemtierSpec


class TestMemtierSpec:
    def test_defaults_match_paper(self):
        spec = MemtierSpec()
        assert spec.read_fraction == 0.90
        assert spec.write_fraction == pytest.approx(0.10)
        assert spec.duration_ns == 360 * 10**9

    def test_mix_is_roughly_90_10(self):
        spec = MemtierSpec()
        commands = list(spec.commands(5_000, protocol="redis"))
        reads = sum(1 for c in commands if c.startswith(b"GET"))
        assert 0.88 < reads / len(commands) < 0.92

    def test_generation_is_deterministic(self):
        spec = MemtierSpec()
        first = list(spec.commands(100, seed=7))
        second = list(spec.commands(100, seed=7))
        assert first == second
        assert first != list(spec.commands(100, seed=8))

    def test_redis_commands_run_against_server(self):
        kernel = VirtualKernel()
        server = RedisServer(redis_version("2.0.0"))
        server.attach(kernel)
        runtime = NativeRuntime(kernel, server, PROFILES["redis"])
        client = VirtualClient(kernel, server.address)
        for command in MemtierSpec().commands(200, protocol="redis"):
            response, _ = client.request(runtime, command, now=0)
            assert response.endswith(b"\r\n")

    def test_memcached_commands_run_against_server(self):
        kernel = VirtualKernel()
        server = MemcachedServer(memcached_version("1.2.2"))
        server.attach(kernel)
        runtime = NativeRuntime(kernel, server, PROFILES["memcached"])
        client = VirtualClient(kernel, server.address)
        for command in MemtierSpec().commands(200, protocol="memcached"):
            response, _ = client.request(runtime, command, now=0)
            assert response in (b"STORED\r\n", b"END\r\n") \
                or response.startswith(b"VALUE")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            list(MemtierSpec().commands(1, protocol="http"))

    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_unknown_protocol_raises_at_the_first_next_for_any_count(
            self, count):
        commands = MemtierSpec().commands(count, protocol="http")
        with pytest.raises(ValueError, match="unknown protocol 'http'"):
            next(commands)

    def test_empty_keyspace_raises_as_randrange_did(self):
        with pytest.raises(ValueError):
            next(MemtierSpec(keyspace=0).commands(1))
        with pytest.raises(ValueError):
            UniformKeys(0)

    def test_store_growth_saturates_at_keyspace(self):
        spec = MemtierSpec(keyspace=1_000)
        assert spec.expected_store_growth(100) < 1_000
        assert spec.expected_store_growth(10_000_000) == 1_000

    def test_store_growth_monotone(self):
        spec = MemtierSpec()
        values = [spec.expected_store_growth(n)
                  for n in (0, 100, 10_000, 1_000_000)]
        assert values == sorted(values)
        assert values[0] == 0

    # Golden hashes pin the exact byte stream across the refactor onto
    # the shared repro.workloads.keyspace sampler and again across the
    # inline key draw and the shared request templates: a drift here
    # silently invalidates every Memtier-calibrated experiment.
    SPECS = {
        "paper": MemtierSpec(),
        # hostbench's update-rule-heavy mix: 20 000 keys take 15 bits,
        # so about 39 % of the draws are rejected and redrawn.
        "update-rule-heavy": MemtierSpec(read_fraction=0.5,
                                         keyspace=20_000),
        "keyspace-1": MemtierSpec(keyspace=1),
        "value-size-0": MemtierSpec(value_size=0),
    }
    GOLDEN = {
        ("paper", 0, "redis"):
            "60950f5cacc0a1ea6edbb1b56d8105eb"
            "02c4c6590667564520f769650ec6d75e",
        ("paper", 0, "memcached"):
            "0467ce2e94229c1680997829867ad2e2"
            "6e4831886e7f27d8b1b206f91ea486c0",
        ("paper", 7, "redis"):
            "3dda3dcbad0391c11055cb18302db35d"
            "861984024fd5ab7b8415063c8b57e04b",
        ("paper", 7, "memcached"):
            "347d367bcf4c158b9a9e8ba23520e274"
            "03b8357df5b33b9994ea45d7ee0f3adf",
        ("update-rule-heavy", 0, "redis"):
            "fd2b898efdb9be278e1c88d5e598465f"
            "8d8c8df781e8389f452cfd234904cf9d",
        ("update-rule-heavy", 0, "memcached"):
            "599b42be6dca6a202bcb278ea5511f64"
            "9c3370e1f895e3fb9a2cdd232c969488",
        ("update-rule-heavy", 7, "redis"):
            "e05cac205bf80d68542f37209fcb868c"
            "11898ff4dd79baadc2270a02c628b7c5",
        ("update-rule-heavy", 7, "memcached"):
            "f0bebcd0cdfecbcd45caa16fdef4091d"
            "441fe4e48e0f3faf67e071b43cc8270d",
        ("keyspace-1", 0, "redis"):
            "16081c040452b425398dd45425870b60"
            "f8a6983019ffd27c5f4ccd13b75e1ec3",
        ("keyspace-1", 0, "memcached"):
            "313285c8a0e8e7cf69e25c3c640cf64c"
            "211ae89961e8b35fcbbcde74dbcfc875",
        ("value-size-0", 0, "redis"):
            "390f0cdedd8f7a5652c5d2b904c9f388"
            "ca3955ef95d375afec180ddbbc76e974",
        ("value-size-0", 0, "memcached"):
            "7c24e2faeab87e4480784e1bc99094dfe"
            "b31e9a8afce481b9a7e3c6a58bf953e",
    }

    @pytest.mark.parametrize(
        "spec,seed,protocol", sorted(GOLDEN),
        ids=[f"{seed}-{protocol}" if spec == "paper"
             else f"{spec}-{seed}-{protocol}"
             for spec, seed, protocol in sorted(GOLDEN)])
    def test_command_stream_matches_golden_hash(self, spec, seed, protocol):
        import hashlib
        stream = b"".join(self.SPECS[spec].commands(
            500, protocol=protocol, seed=seed))
        digest = hashlib.sha256(stream).hexdigest()
        assert digest == self.GOLDEN[(spec, seed, protocol)]


#: Keyspaces where a draw's rejection rate moves: 1, 2, 3, every power
#: of two and its neighbours up to 2^40, and anything in between.
keyspaces = st.one_of(
    st.sampled_from([1, 2, 3]),
    st.integers(0, 40).map(lambda bits: 2 ** bits),
    st.tuples(st.integers(1, 40), st.sampled_from([-1, 1])).map(
        lambda pair: 2 ** pair[0] + pair[1]),
    st.integers(1, 2 ** 40))


class TestInlineDraw:
    """Memtier's inline key draw and ``UniformKeys.sample`` take what
    ``random.Random.randrange`` takes, a ``random()`` between draws as
    Memtier makes one, and leave the rng in the same state."""

    @given(seed=st.integers(0, 2 ** 32), keyspace=keyspaces,
           count=st.integers(0, 40))
    def test_memtier_draws_what_randrange_draws(self, seed, keyspace,
                                                count):
        made = []
        stream = RngStreams.stream

        def kept(streams, name):
            made.append(stream(streams, name))
            return made[-1]

        with mock.patch.object(RngStreams, "stream", kept):
            commands = list(MemtierSpec(keyspace=keyspace).commands(
                count, seed=seed))
        keys = [int(command[:-2].split(b" ")[1][len(b"memtier-"):])
                for command in commands]
        reference = RngStreams(seed).stream("memtier")
        expected = []
        for _ in range(count):
            expected.append(reference.randrange(keyspace))
            reference.random()
        assert keys == expected
        assert made[0].getstate() == reference.getstate()

    @given(seed=st.integers(0, 2 ** 32), keyspace=keyspaces,
           count=st.integers(0, 40))
    def test_uniform_keys_draw_what_randrange_draws(self, seed, keyspace,
                                                    count):
        keys, drawn = UniformKeys(keyspace), random.Random(seed)
        reference = random.Random(seed)
        for _ in range(count):
            assert keys.sample(drawn) == reference.randrange(keyspace)
            assert drawn.random() == reference.random()
        assert drawn.getstate() == reference.getstate()


class TestFtpBenchSpec:
    def test_variants(self):
        assert FtpBenchSpec.small().file_size == 5
        assert FtpBenchSpec.large().file_size == 10 * 1024 * 1024
        assert FtpBenchSpec.small().duration_ns == 60 * 10**9

    def test_payload_size_and_determinism(self):
        spec = FtpBenchSpec.small()
        assert len(spec.payload()) == 5
        assert spec.payload() == spec.payload()

    def test_commands_repeat_retr(self):
        commands = FtpBenchSpec.small().commands(3)
        assert commands == [b"RETR bench.bin"] * 3

    def test_bench_loop_against_server(self):
        spec = FtpBenchSpec.small()
        kernel = VirtualKernel()
        kernel.fs.write_file("/" + spec.file_name, spec.payload())
        server = VsftpdServer(vsftpd_version("2.0.5"))
        server.attach(kernel)
        runtime = NativeRuntime(kernel, server, PROFILES["vsftpd-small"])
        client = FtpClient(kernel, server.address)
        client.login(runtime)
        for _ in range(5):
            _, data = client.retr(runtime, spec.file_name)
            assert data == spec.payload()


class TestVirtualClient:
    def test_latencies_recorded(self):
        kernel = VirtualKernel()
        server = RedisServer(redis_version("2.0.0"))
        server.attach(kernel)
        runtime = NativeRuntime(kernel, server, PROFILES["redis"])
        client = VirtualClient(kernel, server.address)
        client.command(runtime, b"PING")
        client.command(runtime, b"PING")
        assert len(client.latencies_ns) == 2
        assert client.max_latency_ns() >= max(client.latencies_ns[0], 1)

    def test_max_latency_none_without_requests(self):
        kernel = VirtualKernel()
        server = RedisServer(redis_version("2.0.0"))
        server.attach(kernel)
        client = VirtualClient(kernel, server.address)
        assert client.max_latency_ns() is None

    def test_command_appends_crlf(self):
        kernel = VirtualKernel()
        server = RedisServer(redis_version("2.0.0"))
        server.attach(kernel)
        runtime = NativeRuntime(kernel, server, PROFILES["redis"])
        client = VirtualClient(kernel, server.address)
        assert client.command(runtime, b"PING") == b"+PONG\r\n"
        assert client.command(runtime, b"PING\r\n") == b"+PONG\r\n"


class TestFtpClientParsing:
    def test_pasv_reply_parsing(self):
        reply = b"227 Entering Passive Mode (127,0,0,1,78,32).\r\n"
        assert FtpClient._parse_data_port(reply) == 78 * 256 + 32

    def test_epsv_reply_parsing(self):
        reply = b"229 Entering Extended Passive Mode (|||20007|).\r\n"
        assert FtpClient._parse_data_port(reply) == 20007

    def test_garbage_reply_rejected(self):
        from repro.errors import KernelError
        with pytest.raises(KernelError):
            FtpClient._parse_data_port(b"500 nope\r\n")
