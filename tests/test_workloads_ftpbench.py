"""Semantic cross-validation of the Vsftpd benchmark (Table 2 columns).

The paper's Vsftpd workload (:class:`FtpBenchSpec`, §6.1) logs in and
repeatedly downloads one file.  The fluid model asserts Vsftpd's
throughput analytically; here the same RETR loop runs through the real
protocol stack with :class:`FtpClient`, and the server CPU time it
costs must agree with the calibrated profile.
"""

from repro.apps import deploy
from repro.mve import VaranRuntime
from repro.servers.native import NativeRuntime
from repro.sim.engine import SECOND
from repro.syscalls.costs import PROFILES, ExecutionMode
from repro.workloads.ftpclient import FtpClient
from repro.workloads.memtier import FtpBenchSpec


def deployment(spec, runtime=NativeRuntime, **kwargs):
    stack = deploy("vsftpd", "2.0.5", runtime, **kwargs)
    stack.kernel.fs.write_file("/" + spec.file_name, spec.payload())
    client = FtpClient(stack.kernel, stack.server.address, "ftpbench")
    client.login(stack.runtime)
    return stack, client


def retrieve(client, runtime, cpu, spec, count):
    """``count`` RETRs of the benchmark file, each issued once the
    server is free; returns the downloaded files."""
    files, now = [], SECOND
    for _ in range(count):
        control, data = client.retr(runtime, spec.file_name, now=now)
        assert control.endswith(b"226 Transfer complete.\r\n"), control
        files.append(data)
        now = max(now + 1, cpu.busy_until)
    return files


def ops_per_sec(stack, client, cpu, spec, count):
    busy = cpu.total_busy
    retrieve(client, stack.runtime, cpu, spec, count)
    return count * SECOND / (cpu.total_busy - busy)


class TestSmallFile:
    def test_native_throughput_near_table2(self):
        spec = FtpBenchSpec.small()
        stack, client = deployment(spec)
        rate = ops_per_sec(stack, client, stack.runtime.cpu, spec, 40)
        # Paper Table 2: 2667 ops/s native.  A semantic RETR costs one
        # command iteration plus the data-connection machinery (PASV is
        # a separate command), so allow a generous band around the
        # calibrated per-op figure.
        assert 1_000 < rate < 3_500

    def test_bytes_downloaded(self):
        spec = FtpBenchSpec.small()
        stack, client = deployment(spec)
        files = retrieve(client, stack.runtime, stack.runtime.cpu, spec, 10)
        assert files == [spec.payload()] * 10
        assert sum(map(len, files)) == 10 * spec.file_size

    def test_mve_leader_slower_than_native(self):
        spec = FtpBenchSpec.small()
        stack, client = deployment(spec, VaranRuntime,
                                   ring_capacity=1 << 14)
        runtime = stack.runtime
        runtime.fork_follower(0)
        mve_rate = ops_per_sec(stack, client, runtime.leader.cpu, spec, 30)
        runtime.drain_follower()
        assert runtime.last_divergence is None

        stack, client = deployment(spec)
        native_rate = ops_per_sec(stack, client, stack.runtime.cpu, spec, 30)
        drop = 1 - mve_rate / native_rate
        # Table 2's Vsftpd-small Varan-2 drop is 24%; the semantic stack
        # must land in the same region.
        assert 0.15 < drop < 0.40


class TestLargeFile:
    def test_large_transfer_dominated_by_bytes(self):
        spec = FtpBenchSpec(file_size=1024 * 1024)  # 1 MiB, scaled down
        stack, client = deployment(spec)
        runtime = stack.runtime
        runtime.profile = PROFILES["vsftpd-large"]
        busy = runtime.cpu.total_busy
        files = retrieve(client, runtime, runtime.cpu, spec, 5)
        assert sum(map(len, files)) == 5 * spec.file_size
        # Per-op time must far exceed the small-file case.
        small_cost = PROFILES["vsftpd-small"].op_cost_ns(
            ExecutionMode.NATIVE)
        assert (runtime.cpu.total_busy - busy) / 5 > small_cost
