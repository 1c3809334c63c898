"""Workload generators and client plumbing.

* :mod:`repro.workloads.client` — a virtual client: connect, send,
  pump the server runtime, read the response, measure latency.
* :mod:`repro.workloads.memtier` — the workload specs: the Memtier-like
  closed-loop key-value benchmark (90% GET / 10% SET) used for Redis and
  Memcached, and the paper's custom Vsftpd benchmark (log in, repeatedly
  RETR one file).
* :mod:`repro.workloads.ftpclient` — a virtual FTP client (control and
  data connections) over the same kernel.
* :mod:`repro.workloads.keyspace` — shared key-popularity
  distributions (uniform + Zipf) every generator samples from.
* :mod:`repro.workloads.arrivals` — open-loop arrival processes
  (Poisson + bursty MMPP) over deterministic rng streams.
* :mod:`repro.workloads.pool` — the flyweight client pool: millions of
  logical clients in O(connections) memory.
* :mod:`repro.workloads.openloop` — the ``LoadSpec`` DSL + open-loop
  generator; scenarios and CLI in ``openloop_scenarios`` /
  ``openloop_cli`` (see ``docs/workloads.md``).
"""

from repro.workloads.client import VirtualClient
from repro.workloads.openloop import LoadSpec, OpenLoopGenerator

__all__ = ["VirtualClient", "LoadSpec", "OpenLoopGenerator"]
