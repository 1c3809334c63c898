"""Every module under ``src/repro`` is one a command can import.

The walk starts where ``python -m repro`` does — ``repro.__main__``
and every module named in ``repro.cli.COMMANDS`` — and follows the
static import closure: every ``import`` and ``from … import`` in a
module's source, function bodies included.  ``from package import
name`` reaches only the submodule that defines ``name``; a package
``__init__``'s other re-exports reach nothing.  A module left outside
is code no command runs: wire it into a command or delete it.  The
modules loaded some other way are listed with how.
"""

import ast
import os
import subprocess
import sys

from repro.cli import COMMANDS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: Modules no static import reaches, each with what loads it.
ALLOWED = {
    # hostbench's probe table binds SpanCollector.open/close/add and
    # StreamRecorder.on_iteration/write here by name, and that table is
    # frozen.
    "repro.obs.spans",
    "repro.replay.recorder",
    # repro.bench.claims loads its drivers through a table of strings.
    "repro.bench.semantic",
}


def _modules():
    """Dotted name -> ``(parsed source, is a package __init__)``."""
    found = {}
    for folder, _, files in os.walk(os.path.join(SRC, "repro")):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(folder, filename)
            parts = os.path.relpath(path, SRC)[:-3].split(os.sep)
            package = parts[-1] == "__init__"
            if package:
                parts.pop()
            with open(path, encoding="utf-8") as handle:
                found[".".join(parts)] = (ast.parse(handle.read()), package)
    return found


def _defining(modules, package, name):
    """The module ``from package import name`` loads ``name`` from."""
    if f"{package}.{name}" in modules:
        return f"{package}.{name}"
    tree, is_package = modules[package]
    if is_package:
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module in modules:
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return _defining(modules, node.module, alias.name)
    return package


def _imports(body):
    """Every import statement in ``body``, nested blocks included."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        for block in ("body", "orelse", "finalbody", "handlers"):
            yield from _imports(getattr(node, block, ()))


def _closure(modules, roots):
    reached, frontier = set(), list(roots)
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        tree, is_package = modules[module]
        if is_package:
            continue    # its re-exports count only where they are named
        for node in _imports(tree.body):
            if isinstance(node, ast.Import):
                frontier += [alias.name for alias in node.names
                             if alias.name in modules]
            elif isinstance(node, ast.ImportFrom) \
                    and node.module in modules:
                frontier += [_defining(modules, node.module, alias.name)
                             for alias in node.names]
    return reached


def test_every_module_is_reached_from_a_command():
    modules = _modules()
    assert _defining(modules, "repro.core", "Mvedsua") == "repro.core.mvedsua"
    reached = _closure(modules, {"repro.__main__", *COMMANDS.values()})
    unreached = {module for module, (_, package) in modules.items()
                 if not package and module not in reached}
    assert unreached == ALLOWED


#: Runs ``python -m repro table2`` in-process and prints the ``repro``
#: modules that were loaded, one a line.
_TABLE2_LOADS = """
import contextlib, io, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["table2"]) == 0
print("\\n".join(sorted(name for name in sys.modules
                         if name.startswith("repro"))))
"""


def test_table2_loads_no_mve_net_or_obs_module():
    # The fluid model's only workload import is ``repro.workloads.memtier``;
    # a package ``__init__`` that imported the client eagerly would load
    # the kernel, and with it the MVE stack, which the static walk above
    # cannot see (a package's re-exports count only where named).
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", _TABLE2_LOADS], env=env,
                          capture_output=True, text=True, check=True)
    loaded = done.stdout.split()
    heavy = ("repro.mve", "repro.net", "repro.obs")
    assert "repro.bench.table2" in loaded
    assert [name for name in loaded if name in heavy
            or name.startswith(tuple(h + "." for h in heavy))] == []
