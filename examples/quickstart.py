"""Quickstart: a full Mvedsua update lifecycle in ~60 lines.

Runs the paper's running example (Figure 1): a key-value store updated
from an untyped v1.0 to a typed v2.0 while clients keep talking to it.
The timeline follows Figure 2: fork (t1), update on the follower (t2),
catch-up (t3), promotion (t4/t5), finalization (t6).

Run with:  python examples/quickstart.py
"""

from repro.apps import deploy
from repro.sim.engine import SECOND, ns_to_seconds


def main() -> None:
    # A virtual machine, a DSU-enabled server on it, and Mvedsua
    # supervising the deployment in single-leader mode — everything the
    # app catalog (repro.apps) knows about "kvstore", stood up at 1.0.
    stack = deploy("kvstore", "1.0")
    mvedsua = stack.runtime
    client = stack.client()

    print("== single-leader stage (v1.0) ==")
    print("PUT balance 1000 ->", client.command(mvedsua, b"PUT balance 1000"))
    print("GET balance      ->", client.command(mvedsua, b"GET balance"))

    # Request the dynamic update.  The leader forks; the follower runs
    # the state transformer; the leader keeps serving throughout.  The
    # catalog supplies the 2.0 build and the pair's rewrite rules.
    attempt = stack.update("2.0", SECOND)
    print(f"\n== update requested: {attempt.reason} "
          f"(transform visited {attempt.entries} entries) ==")
    print("stage:", mvedsua.stage.value)

    # Old semantics stay authoritative: the new PUT-number command is
    # rejected by the leader, and a rewrite rule makes the updated
    # follower reject it identically (Figure 4, Rule 1).
    print("PUT-number pi 3  ->",
          client.command(mvedsua, b"PUT-number pi 3", now=2 * SECOND))
    print("GET balance      ->",
          client.command(mvedsua, b"GET balance", now=3 * SECOND))
    print("divergences so far:", mvedsua.runtime.last_divergence)

    # The operator is satisfied: promote the new version.  PUT-string
    # maps back to a plain PUT for the old follower (Figure 4, Rule 3),
    # so the demoted version keeps validating the new leader.
    mvedsua.promote(4 * SECOND)
    print("\n== promoted: clients now see v2.0 semantics ==")
    print("PUT-string s hi  ->",
          client.command(mvedsua, b"PUT-string s hi", now=5 * SECOND))

    # Finally drop the old version; v2.0-only commands are now safe.
    mvedsua.finalize(6 * SECOND)
    timeline = mvedsua.last_outcome()
    print("\n== finalized ==")
    print("PUT-number pi 3  ->",
          client.command(mvedsua, b"PUT-number pi 3", now=7 * SECOND))
    print("TYPE pi          ->",
          client.command(mvedsua, b"TYPE pi", now=7 * SECOND))
    print("GET balance      ->",
          client.command(mvedsua, b"GET balance", now=7 * SECOND))
    print(f"\ntimeline: forked t1={ns_to_seconds(timeline.t1_forked):.4f}s, "
          f"updated t2={ns_to_seconds(timeline.t2_updated):.4f}s, "
          f"promoted t5={ns_to_seconds(timeline.t5_promoted):.1f}s, "
          f"finalized t6={ns_to_seconds(timeline.t6_finalized):.1f}s")
    print("update succeeded:", timeline.succeeded())


if __name__ == "__main__":
    main()
