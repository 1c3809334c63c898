"""Memtier-like workload description and generator.

The paper drives Redis and Memcached with Memtier 1.2.10 for 6 minutes,
starting from an empty store, at a 90% read / 10% write mix (§6.1).

Two uses:

* :class:`MemtierSpec` parameterises the fluid performance simulation
  (connections, mix, duration) used by the Table 2 / Figure 6 / Figure 7
  benches.
* :meth:`MemtierSpec.commands` generates concrete command sequences for
  *semantic* runs — small-scale MVE validation where every request flows
  through the full server + ring-buffer + rules path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from repro.sim.engine import SECOND
from repro.sim.rng import RngStreams
from repro.workloads.keyspace import UniformKeys, request_templates


@dataclass(frozen=True)
class MemtierSpec:
    """The benchmark configuration of the paper's §6.1."""

    #: Read fraction of the 90/10 mix.
    read_fraction: float = 0.90
    #: Concurrent client connections.
    connections: int = 50
    #: Distinct keys addressed by the benchmark.
    keyspace: int = 100_000
    #: Benchmark duration.
    duration_ns: int = 360 * SECOND
    #: Payload size for writes.
    value_size: int = 32

    @property
    def write_fraction(self) -> float:
        return 1.0 - self.read_fraction

    def commands(self, count: int, *, protocol: str = "redis",
                 seed: int = 0) -> Iterator[bytes]:
        """Yield ``count`` concrete requests in the 90/10 mix.

        ``protocol`` is ``"redis"``, ``"memcached"`` or ``"kvstore"``.
        A command is one generator resume: an inline key draw in the
        words ``randrange`` takes (``TestInlineDraw`` pins it), and a
        ``request_templates`` template ``% key``.
        """
        read, write = request_templates(protocol, "memtier-",
                                        "v" * self.value_size)
        bits = UniformKeys(self.keyspace).bits  # raises if it is empty
        keyspace, read_fraction = self.keyspace, self.read_fraction
        rng = RngStreams(seed).stream("memtier")
        getrandbits, random = rng.getrandbits, rng.random
        for _ in range(count):
            key = getrandbits(bits)
            while key >= keyspace:
                key = getrandbits(bits)
            yield (read if random() < read_fraction else write) % key

    def expected_store_growth(self, ops: int) -> int:
        """Approximate distinct keys created after ``ops`` operations.

        Writes land uniformly on the keyspace, so the expected number of
        distinct keys after w writes is ``K * (1 - (1 - 1/K)^w)``.
        """
        writes = ops * self.write_fraction
        keyspace = self.keyspace
        return int(round(keyspace * (1 - (1 - 1 / keyspace) ** writes)))


@dataclass(frozen=True)
class FtpBenchSpec:
    """The paper's custom Vsftpd benchmark (§6.1).

    Logs in once, then repeatedly downloads one file for 60 seconds:
    a 5-byte file for the "small" variant (stressing user-space command
    processing) or a 10 MB file for "large" (stressing data transfer).
    """

    file_size: int
    duration_ns: int = 60 * SECOND
    file_name: str = "bench.bin"

    @classmethod
    def small(cls) -> "FtpBenchSpec":
        return cls(file_size=5)

    @classmethod
    def large(cls) -> "FtpBenchSpec":
        return cls(file_size=10 * 1024 * 1024)

    def payload(self) -> bytes:
        """The file contents placed on the virtual filesystem."""
        return bytes(index % 251 for index in range(self.file_size))

    def commands(self, count: int) -> List[bytes]:
        """RETR loop as concrete control-channel commands."""
        return [f"RETR {self.file_name}".encode()] * count
