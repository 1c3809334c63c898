"""Exception hierarchy shared across the repro packages.

Every failure mode the paper discusses maps to a distinct exception type so
that the Mvedsua orchestrator (``repro.core``) can react differently to,
e.g., a divergence (roll back the follower) versus a leader crash (promote
the follower).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The simulation engine was driven into an invalid state."""


class KernelError(ReproError):
    """A virtual-kernel operation failed (bad fd, closed socket, ...)."""


class BadFileDescriptor(KernelError):
    """Operation on an fd that is not open in the calling process."""


class ConnectionClosed(KernelError):
    """Read from or write to a connection whose peer has closed."""


class ConnectionReset(KernelError):
    """The peer reset the connection mid-stream (ECONNRESET)."""


class BrokenPipe(KernelError):
    """Write on a connection whose read side has vanished (EPIPE)."""


class FdExhausted(KernelError):
    """The process ran out of file descriptors (EMFILE)."""


class FileNotFound(KernelError):
    """Virtual filesystem lookup failed."""


class ServerCrash(ReproError):
    """A server version crashed while handling a request.

    This models segfaults and aborts in the C servers; the MVE layer
    observes it on whichever process (leader or follower) executed the
    faulty code path.
    """

    def __init__(self, message: str, *, pid: int | None = None) -> None:
        super().__init__(message)
        self.pid = pid


class UpdateError(ReproError):
    """Base class for errors raised while applying a dynamic update."""


class QuiescenceTimeout(UpdateError):
    """Threads failed to reach update points in time (a timing error)."""


class StateTransformError(UpdateError):
    """A state transformation function raised or produced a broken heap."""


class NoUpdatePath(UpdateError):
    """No registered update (code + xform) between the requested versions."""


class DivergenceError(ReproError):
    """Leader and follower disagreed on externally visible behaviour.

    ``at`` (virtual nanoseconds) and ``version`` (the follower that
    diverged) are filled in by the MVE runtime via :meth:`annotate`
    once it knows them — the divergence check itself sees only the two
    records.
    """

    def __init__(self, message: str, *, expected: object = None,
                 actual: object = None, at: int | None = None,
                 version: str | None = None) -> None:
        super().__init__(message)
        self.expected = expected
        self.actual = actual
        self.base_message = message
        self.at = at
        self.version = version
        #: The monitor's state at the mismatch (a
        #: :class:`~repro.obs.forensics.ForensicsBundle`), attached by
        #: the follower step that caught it.
        self.forensics = None

    def annotate(self, *, at: int | None = None,
                 version: str | None = None) -> "DivergenceError":
        """Attach the virtual timestamp and version id; rebuilds the
        exception message so logs and reports carry both."""
        if at is not None:
            self.at = at
        if version is not None:
            self.version = version
        suffix = []
        if self.at is not None:
            suffix.append(f"at={self.at}")
        if self.version is not None:
            suffix.append(f"version={self.version}")
        if suffix:
            self.args = (f"{self.base_message} [{' '.join(suffix)}]",)
        return self


class RuleError(ReproError):
    """A rewrite rule is malformed or failed to apply."""


class DslSyntaxError(RuleError):
    """The textual rule DSL failed to parse."""
