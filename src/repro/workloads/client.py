"""Virtual clients.

A client owns its own fd domain, connects to a server address, and talks
to whichever runtime (native or MVE) is serving it.  ``request`` is the
closed-loop primitive: send, let the server run, read the reply, and
report the completion time so workloads can compute latency.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.net.kernel import VirtualKernel
from repro.sites import OBS


class VirtualClient:
    """One client connection to a simulated server."""

    def __init__(self, kernel: VirtualKernel, address: Tuple[str, int],
                 name: str = "client") -> None:
        self.kernel = kernel
        self.address = address
        self.name = name
        self.domain = kernel.create_domain()
        self.fd = kernel.connect(self.domain, address)
        self.latencies_ns: List[int] = []

    def send(self, data: bytes) -> None:
        """Write raw bytes toward the server."""
        self.kernel.write(self.domain, self.fd, data)

    def recv(self) -> bytes:
        """Read whatever the server has written so far."""
        return self.kernel.read(self.domain, self.fd)

    def request(self, runtime: Any, data: bytes, now: int) -> Tuple[bytes, int]:
        """Closed-loop request: send, pump the server, read the reply.

        Returns ``(response_bytes, completion_time)`` and records the
        request latency.  ``runtime`` is anything with ``pump(now)`` —
        a :class:`~repro.servers.native.NativeRuntime` or a
        :class:`~repro.mve.varan.VaranRuntime`.
        """
        spans = OBS.spans
        if spans is None:
            self.send(data)
            done = runtime.pump(now)
            response = self.recv()
            self.latencies_ns.append(done - now)
            return response, done
        span = spans.open("request", "gateway", now, client=self.name,
                          nbytes=len(data))
        try:
            self.send(data)
            done = runtime.pump(now)
            response = self.recv()
        except BaseException:
            spans.close(span, now, error=True)
            raise
        spans.close(span, done, answered=bool(response))
        self.latencies_ns.append(done - now)
        return response, done

    def command(self, runtime: Any, line: bytes, now: int = 0) -> bytes:
        """Convenience: send one CRLF-terminated request, return the reply."""
        if not line.endswith(b"\r\n"):
            line += b"\r\n"
        response, _ = self.request(runtime, line, now)
        return response

    def close(self) -> None:
        """Close the connection (the server sees EOF)."""
        self.kernel.close(self.domain, self.fd)

    def max_latency_ns(self) -> Optional[int]:
        """Largest observed request latency, or None with no requests."""
        if not self.latencies_ns:
            return None
        return max(self.latencies_ns)
