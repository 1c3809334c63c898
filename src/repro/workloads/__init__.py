"""Workload generators and client plumbing.

* :mod:`repro.workloads.client` — a virtual client: connect, send,
  pump the server runtime, read the response, measure latency.
* :mod:`repro.workloads.memtier` — the workload specs: the Memtier-like
  closed-loop key-value benchmark (90% GET / 10% SET) used for Redis and
  Memcached, and the paper's custom Vsftpd benchmark (log in, repeatedly
  RETR one file).
* :mod:`repro.workloads.ftpclient` — a virtual FTP client (control and
  data connections) over the same kernel.
* :mod:`repro.workloads.keyspace` — the key distributions (uniform +
  Zipf) and the request templates every generator shares.
* :mod:`repro.workloads.arrivals` — open-loop arrival processes
  (Poisson + bursty MMPP) over deterministic rng streams.
* :mod:`repro.workloads.pool` — the flyweight client pool: millions of
  logical clients in O(connections) memory.
* :mod:`repro.workloads.openloop` — the ``LoadSpec`` DSL + open-loop
  generator; scenarios and CLI in ``openloop_scenarios`` /
  ``openloop_cli`` (see ``docs/workloads.md``).

The names below are loaded on first use, so importing one workload
module (``bench.fluid`` imports ``memtier``) does not load the client,
and with it the kernel and the MVE stack.
"""

import importlib

#: Re-exported name -> the module that defines it.
_EXPORTS = {"VirtualClient": "repro.workloads.client",
            "LoadSpec": "repro.workloads.openloop",
            "OpenLoopGenerator": "repro.workloads.openloop"}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
