"""Code versions.

A :class:`ServerVersion` is what Kitsune dynamically loads: the command
handlers of one release of one server, plus the metadata the rest of the
system needs — which commands exist (for rewrite-rule construction), and
how many heap entries the version's state transformer must visit (for
update-pause accounting).

Concrete versions live in the server packages
(``repro.servers.redis.versions`` etc.); this module defines the interface
and a registry keyed by ``(app, version_name)``.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import NoUpdatePath


class ServerVersion:
    """One release of one server.

    Subclasses implement :meth:`initial_heap` and :meth:`handle`; the
    server runtime (``repro.servers.base``) owns connection management and
    calls :meth:`handle` once per parsed client request.
    """

    #: Application name, e.g. ``"redis"``.
    app: str = ""
    #: Release name, e.g. ``"2.0.0"``.
    name: str = ""
    #: On-disk state format this version checkpoints/restores.  A
    #: checkpoint-restart upgrade (§2.2) only works between versions
    #: sharing a format; DSU has no such restriction.
    state_format: str = "v1"

    def initial_heap(self) -> Dict[str, Any]:
        """A fresh heap for a process started directly in this version."""
        raise NotImplementedError

    def handle(self, heap: Dict[str, Any], request: bytes,
               session: Optional[Dict[str, Any]] = None,
               io: Optional[Any] = None) -> List[bytes]:
        """Process one client request; returns response payload(s).

        Each returned ``bytes`` becomes one ``write`` syscall, so a version
        that answers in two writes where its predecessor used one produces
        exactly the kind of benign divergence rewrite rules exist for.

        ``io`` is an I/O context (the server's syscall gateway plus
        connection bookkeeping) for versions that perform their own I/O
        mid-request — FTP data transfers, AOF appends.  Simple
        request/response versions ignore it.

        May raise :class:`~repro.errors.ServerCrash` to model a bug.
        """
        raise NotImplementedError

    def commands(self) -> FrozenSet[str]:
        """Command verbs this version understands (protocol surface)."""
        raise NotImplementedError

    def heap_entries(self, heap: Dict[str, Any]) -> int:
        """How many entries a state transformer must visit.

        Drives update-pause accounting (Figure 7).  Defaults to 0, i.e.
        a constant-time transform.
        """
        return 0

    def response_texts(self) -> FrozenSet[bytes]:
        """Static response payloads this version is known to produce.

        Used by mvelint (:mod:`repro.analysis`) to cross-check rewrite
        rules against cross-version response-text deltas.  Only *static*
        texts belong here (banners, error strings, fixed status lines);
        dynamic payloads (values, listings) must be omitted.  The default
        empty set means "unknown" and disables text-based checks.
        """
        return frozenset()

    def describe(self) -> str:
        """``app-name`` label used in logs and reports."""
        return f"{self.app}-{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.describe()}>"


class VersionRegistry:
    """All known versions of all apps, plus the release ordering."""

    def __init__(self) -> None:
        self._versions: Dict[Tuple[str, str], ServerVersion] = {}
        self._order: Dict[str, List[str]] = {}

    def register(self, version: ServerVersion) -> ServerVersion:
        """Add a version; release order is registration order per app."""
        key = (version.app, version.name)
        if key in self._versions:
            raise ValueError(f"duplicate version {key}")
        self._versions[key] = version
        self._order.setdefault(version.app, []).append(version.name)
        return version

    def get(self, app: str, name: str) -> ServerVersion:
        """Look up one version."""
        try:
            return self._versions[(app, name)]
        except KeyError:
            raise NoUpdatePath(f"unknown version {app}-{name}") from None

    def releases(self, app: str) -> List[str]:
        """Release names of ``app`` in order."""
        return list(self._order.get(app, []))

    def update_pairs(self, app: str) -> List[Tuple[str, str]]:
        """All consecutive (old, new) release pairs — Table 1's rows."""
        releases = self.releases(app)
        return list(zip(releases, releases[1:]))
