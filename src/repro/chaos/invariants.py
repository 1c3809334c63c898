"""Post-run invariant checking for chaos campaigns.

After every injected run the campaign asserts two things the paper's
availability argument rests on (§6.2): clients observed a *gap-free,
protocol-valid* response stream, and the surviving leader's state is
consistent with everything clients were told.  A fault may cost a client
its connection (that is an honest ``availability-loss``), but it must
never make the service *lie* — acknowledge a write and lose it, or
answer a read with a value no execution could have produced.

The checker works over :class:`ClientObservation` logs.  A ``None``
reply means the client observed nothing for that command (its connection
died, or the service was down).  Un-acknowledged writes make state
*uncertain*, not wrong: the model tracks the set of values each key
could legally hold and flags replies (and final state) outside that set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

#: kvstore wire constants (kept in sync with
#: :mod:`repro.servers.kvstore.versions`; version-neutral subset).
OK = b"+OK\r\n"
NOT_FOUND = b"-ERR not found\r\n"
UNKNOWN = b"-ERR unknown command\r\n"

#: Sentinel member of a key's possible-value set: "key may be absent".
ABSENT = "\x00absent"


@dataclass(frozen=True)
class ClientObservation:
    """One client-visible exchange: who asked what, and what came back."""

    client: str
    command: str
    reply: Optional[bytes]

    def as_dict(self) -> Dict[str, object]:
        reply = None
        if self.reply is not None:
            reply = self.reply.decode("latin-1").encode("unicode_escape") \
                .decode("ascii")
        return {"client": self.client, "command": self.command,
                "reply": reply}


class KvInvariant:
    """Gap-free + protocol-valid + state-consistent, for kvstore runs.

    The campaign restricts itself to the version-neutral command subset
    (plain ``PUT``/``GET``), so one checker covers runs that end on
    either version.
    """

    def __init__(self) -> None:
        #: key -> set of values the key could legally hold right now
        #: (ABSENT marks "could be missing").  Uncertainty enters via
        #: unacknowledged PUTs and collapses on any acknowledged reply.
        self.possible: Dict[str, Set[str]] = {}

    # -- the observation stream ----------------------------------------

    def check(self, observations: List[ClientObservation]) -> List[str]:
        """All problems in one run's observation log (empty = clean)."""
        problems: List[str] = []
        went_dark: Set[str] = set()
        for index, obs in enumerate(observations):
            if obs.reply is None:
                went_dark.add(obs.client)
                self._apply_unacked(obs.command)
                continue
            found = self._check_reply(obs)
            if obs.client in went_dark:
                went_dark.discard(obs.client)
                found.insert(0, "reply after a missed reply — the "
                                "response stream has a gap")
            if found:
                where = f"obs[{index}] {obs.client} {obs.command!r}: "
                problems.extend(where + problem for problem in found)
        return problems

    def _apply_unacked(self, command: str) -> None:
        parts = command.split()
        if len(parts) == 3 and parts[0] == "PUT":
            key, value = parts[1], parts[2]
            current = self.possible.get(key, {ABSENT})
            self.possible[key] = current | {value}

    def _check_reply(self, obs: ClientObservation) -> List[str]:
        parts = obs.command.split()
        reply = obs.reply
        if len(parts) == 3 and parts[0] == "PUT":
            if reply != OK:
                return [f"PUT acknowledged with {reply!r}, expected "
                        f"{OK!r}"]
            self.possible[parts[1]] = {parts[2]}
            return []
        if len(parts) == 2 and parts[0] == "GET":
            key = parts[1]
            current = self.possible.get(key, {ABSENT})
            if reply == NOT_FOUND:
                if ABSENT not in current:
                    return [f"GET said not-found but {key!r} must hold "
                            f"one of {sorted(current)}"]
                self.possible[key] = {ABSENT}
                return []
            for value in current:
                if value is not ABSENT \
                        and reply == value.encode("latin-1") + b"\r\n":
                    self.possible[key] = {value}
                    return []
            return [f"GET returned {reply!r}, outside the possible "
                    f"values {sorted(v for v in current)}"]
        # Anything else the campaign sends is unknown to both versions.
        if reply != UNKNOWN:
            return [f"unknown command answered with {reply!r}"]
        return []

    # -- final-state consistency ----------------------------------------

    def check_final(self, table: Dict[str, str]) -> List[str]:
        """The surviving leader's table must realize one legal history."""
        problems: List[str] = []
        for key in sorted(self.possible):
            current = self.possible[key]
            if key in table:
                if table[key] not in current:
                    problems.append(
                        f"final state: {key!r}={table[key]!r} is outside "
                        f"the possible values {sorted(current)}")
            elif ABSENT not in current:
                problems.append(
                    f"final state: {key!r} is missing but an "
                    f"acknowledged write pinned it to {sorted(current)}")
        return problems


def check_run(observations: List[ClientObservation],
              final_table: Dict[str, str]) -> List[str]:
    """Run the full kvstore invariant over one chaos run."""
    checker = KvInvariant()
    problems = checker.check(observations)
    problems.extend(checker.check_final(final_table))
    return problems
