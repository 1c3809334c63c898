"""Count what code did, for the length of a block.

The observers and the runtime keep no counters that only tests read: a
test that pins "the disabled path builds no tracer and logs nothing"
counts the calls itself, by replacing a class's methods with counting
wrappers for the block and putting the originals back after it; a test
that asks which rewrite rules fired reads the run log.
"""

import contextlib
import inspect
from collections import Counter

from repro.obs.trace import Tracer
from repro.sites import observing


@contextlib.contextmanager
def counted(owner, *names, when=None):
    """Count calls of ``owner``'s methods ``names`` (every function the
    class itself defines, when none are named) made inside the block.

    Yields a :class:`~collections.Counter` keyed by method name; with
    ``when``, a call is counted only when ``when(result)`` is true.
    """
    originals = {name: function
                 for name, function in vars(owner).items()
                 if inspect.isfunction(function)
                 and (not names or name in names)}
    missing = set(names) - set(originals)
    if missing:
        raise AttributeError(f"{owner.__name__} defines no "
                             f"{', '.join(sorted(missing))}")
    calls = Counter()

    def wrap(name, function):
        def entry(*args, **kwargs):
            if when is None:
                calls[name] += 1    # on entry: a call that raises counts
                return function(*args, **kwargs)
            result = function(*args, **kwargs)
            if when(result):
                calls[name] += 1
            return result
        return entry

    for name, function in originals.items():
        setattr(owner, name, wrap(name, function))
    try:
        yield calls
    finally:
        for name, function in originals.items():
            setattr(owner, name, function)


@contextlib.contextmanager
def fired_rules():
    """The names of the rewrite rules fired inside the block, in
    firing order: the run log's ``rule.fired`` events, read once the
    block ends (the yielded list is empty until then)."""
    tracer, fired = Tracer(), []
    with observing(tracer=tracer):
        yield fired
    fired.extend(event.fields["rule"] for event in tracer.events
                 if event.kind == "rule.fired")
