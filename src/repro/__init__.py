"""mvedsua-repro: a from-scratch reproduction of MVEDSUA (ASPLOS 2019).

Mvedsua combines Dynamic Software Updating (Kitsune-style in-place code
and state updates) with Multi-Version Execution (Varan-style
syscall-level leader/follower monitoring) so that dynamic updates are
both *pause-free* (the update runs on a forked follower) and *safe*
(divergences roll the update back with no state loss).

Package map -- see DESIGN.md for the full inventory:

* :mod:`repro.core` -- the Mvedsua orchestrator (the paper's contribution).
* :mod:`repro.dsu` / :mod:`repro.mve` -- the DSU and MVE substrates.
* :mod:`repro.servers` -- Redis, Memcached, Vsftpd, and the running
  example, with real wire protocols over :mod:`repro.net`'s virtual
  kernel.
* :mod:`repro.apps` -- the app catalog (each server's releases, rules,
  transformers and server class, wired once) and ``deploy()``.
* :mod:`repro.bench` -- one driver per paper table/figure
  (``python -m repro all`` runs everything).

Quickstart::

    from repro.apps import deploy

    stack = deploy("kvstore", "1.0")        # kernel, server, Mvedsua
    client = stack.client()
    client.command(stack.runtime, b"PUT balance 1000")
    stack.update("2.0", at=0)               # fork, transform, catch up
    stack.runtime.promote(now=1)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
