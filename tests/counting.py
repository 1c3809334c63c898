"""Count what code did by wrapping it for the length of a block.

The observers keep no counters that only tests read: a test that pins
"the disabled path builds no tracer and logs nothing" counts the calls
itself, by replacing a class's methods with counting wrappers for the
block and putting the originals back after it.
"""

import contextlib
import inspect
from collections import Counter


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
