#!/usr/bin/env python3
"""Python frames per operation, layer by layer, for every hostbench workload.

    python tools/frames.py                    # every workload, the table
    python tools/frames.py --workload NAME    # one workload
    python tools/frames.py --smoke            # a quarter of the op count
    python tools/frames.py --json FRAMES.json # + the numbers as JSON
    python tools/frames.py --lines            # + a lines-per-op table
    python tools/frames.py --functions 25     # + each workload's top 25
                                              #   functions by frames per op
    python tools/frames.py --setup            # the builders instead: set-up
                                              #   frames per op

Each workload is built by ``hostbench/workloads.py``'s own builder at a
fixed small op count (the count ``hostbench/run.py --smoke`` uses, one
pass of the seven experiments for ``paper-all``) and its timed region
— the thunk's slices, as ``hostbench/child.py`` times them — runs
under ``sys.setprofile``, as ``tools/reach.py`` runs the documented
commands.  Every ``call`` event is one Python frame entered
(a generator's resume included; C calls are not frames) and is charged
to the innermost boundary of ``hostbench/probes.py``'s layer table it
runs under, ``(root)`` when under none — the same attribution
``hostbench/run.py --trace 1`` makes of host time.  A frame count does
not depend on the host's speed: the table repeats exactly, run for
run, on one CPython version.  All workloads run in this one process,
so caches an earlier workload warmed stay warm for the next; a
workload measured alone (``--workload``) can read a little higher.

A frame count is blind to a loop that runs inside one frame (a
``FluidSim.run`` step loop is one frame however many steps it takes).
``--lines`` adds an opt-in pass under ``sys.settrace`` that charges
every ``line`` event — one per line executed, a loop's body lines
once per iteration — to the same layers, and prints a "lines per op"
table below the frames table; it is slower, and exact run for run in
the same way.

``--functions N`` names what a layer's count is made of: the same
frames pass also counts frames by function (``path:qualname``, the
path relative to ``src/`` for this repository's code, the file name
otherwise), and a table per workload lists the N functions with the
most frames per op.

``--setup`` counts the set-up instead of the timed region: each
workload's ``build(seed, ops)`` runs once unprofiled, so that its
imports are loaded and what they cache is warm, then once more under
the same profiler, and the table is that second build's frames per op
(by layer; the builders run under no probe, so nearly all is
``(root)``).  With ``--functions N`` it names the builders' N busiest
functions: a generated command that costs one frame shows as its
generator at 1.00 per op.  ``hostbench/child.py``'s ``setup_s`` times
the same builders, with interpreter start and the imports on top.

A second, separate pass builds the workload again with ``tracemalloc``
tracing and records the peak of traced memory over the timed region
(set-up included in what is held), in MiB — the allocation side of
``peak_rss_mb``, without the interpreter and the allocator's slack.

``hostbench/`` is only imported, never edited.  Exit status: 0; 1 when
a workload's run failed its own functional check.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import tracemalloc
from collections import Counter
from typing import Any, Dict, List

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOSTBENCH = os.path.join(REPO, "hostbench")
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, HOSTBENCH)

import probes  # noqa: E402  (hostbench/probes.py: the layer table)
import workloads  # noqa: E402  (hostbench/workloads.py: the builders)

#: Frames that run under no probe boundary.
ROOT = "(root)"
SEED = 1


def default_ops(name: str, smoke: bool) -> int:
    """The op count one workload runs at: ``run.py --smoke``'s, but one
    whole pass of ``paper-all`` (its ``ablations`` is the memory peak)."""
    ops = len(workloads.EXPERIMENTS) if name == "paper-all" \
        else workloads.smoke_ops(workloads.WORKLOADS[name])
    return max(1, ops // 4) if smoke else ops


def boundaries() -> Dict[Any, probes.Probe]:
    """code object -> probe, for every probe target that resolves."""
    codes = {}
    for probe in probes.PROBES:
        try:
            _, _, function = probes._resolve(probe.target)
        except (ImportError, AttributeError):
            continue
        codes[function.__code__] = probe
    return codes


def _drive(steps) -> Any:
    """Exhaust a workload's slices; returns its outcome."""
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


def _layer(probe: probes.Probe, frame: Any) -> str:
    """The layer a boundary frame of ``probe`` opens."""
    if probe.pick is None:
        return probe.layer
    code = frame.f_code
    return probe.pick(tuple(frame.f_locals[arg_name] for arg_name
                            in code.co_varnames[:code.co_argcount]))


def _counted(name: str, ops: int, seed: int, hook, function
             ) -> Dict[str, Any]:
    """Run ``name``'s timed region under ``hook(function)``
    (``sys.setprofile`` or ``sys.settrace``); the outcome's ``ops`` and
    ``failed``."""
    steps = workloads.WORKLOADS[name].build(seed, ops)()
    # A collection inside the region would count finalizers' frames.
    gc.collect()
    gc.disable()
    hook(function)
    try:
        outcome = _drive(steps)
    finally:
        hook(None)
        gc.enable()
    return {"ops": outcome.attempted, "failed": outcome.failed}


def function_name(code: Any) -> str:
    """``path:qualname`` of a code object: the path relative to
    ``src/`` for this repository's modules, the file name otherwise."""
    path = code.co_filename
    src = os.path.join(REPO, "src") + os.sep
    path = path[len(src):] if path.startswith(src) \
        else os.path.basename(path)
    return f"{path}:{getattr(code, 'co_qualname', code.co_name)}"


def _profiler(functions: bool):
    """``(profile, counts, by_code)``: a ``sys.setprofile`` hook that
    charges every frame entered to its layer in ``counts`` and, with
    ``functions``, to its code object in ``by_code``."""
    codes = boundaries()
    counts: Counter = Counter()
    by_code: Counter = Counter()
    #: ``(frame, layer)`` of every open boundary frame, innermost last.
    open_: List[Any] = []

    def profile(frame, event, arg):
        if event == "call":
            probe = codes.get(frame.f_code)
            if probe is not None:
                open_.append((frame, _layer(probe, frame)))
            counts[open_[-1][1] if open_ else ROOT] += 1
            if functions:
                by_code[frame.f_code] += 1
        elif event == "return" and open_ and open_[-1][0] is frame:
            open_.pop()

    return profile, counts, by_code


def _with_functions(counted: Dict[str, Any], counts: Counter,
                    by_code: Counter, functions: bool) -> Dict[str, Any]:
    """``counted`` with its ``"layers"`` and, with ``functions``, its
    ``"functions": {path:qualname: frames}``."""
    counted["layers"] = dict(counts)
    if functions:
        named: Counter = Counter()
        for code, frames in by_code.items():
            named[function_name(code)] += frames
        counted["functions"] = dict(named)
    return counted


def count_frames(name: str, ops: int, seed: int = SEED,
                 functions: bool = False) -> Dict[str, Any]:
    """``{"ops", "failed", "layers": {layer: frames}}`` for one run of
    ``name``'s timed region; with ``functions``, also ``"functions":
    {path:qualname: frames}``."""
    profile, counts, by_code = _profiler(functions)
    counted = _counted(name, ops, seed, sys.setprofile, profile)
    return _with_functions(counted, counts, by_code, functions)


def count_setup_frames(name: str, ops: int, seed: int = SEED,
                       functions: bool = False) -> Dict[str, Any]:
    """``{"ops", "failed", "layers": {layer: frames}}`` for one
    ``build(seed, ops)`` of ``name`` after a warm-up build (``failed``
    is 0: nothing runs); with ``functions``, also ``"functions"``."""
    build = workloads.WORKLOADS[name].build
    # chaos-grid's builder makes a recording directory its thunk
    # removes; no thunk runs here, so this pass removes what it made.
    scratch = os.path.join(HOSTBENCH, ".scratch")
    before = set(os.listdir(scratch)) if os.path.isdir(scratch) else set()
    profile, counts, by_code = _profiler(functions)
    try:
        build(seed, ops)
        gc.collect()
        gc.disable()
        sys.setprofile(profile)
        try:
            build(seed, ops)
        finally:
            sys.setprofile(None)
            gc.enable()
    finally:
        if os.path.isdir(scratch):
            for entry in set(os.listdir(scratch)) - before:
                shutil.rmtree(os.path.join(scratch, entry),
                              ignore_errors=True)
    return _with_functions({"ops": ops, "failed": 0}, counts, by_code,
                           functions)


def count_lines(name: str, ops: int, seed: int = SEED) -> Dict[str, Any]:
    """``{"ops", "failed", "layers": {layer: lines}}``: ``line`` events
    of one run of ``name``'s timed region, each charged to the layer its
    frame runs under."""
    codes = boundaries()
    counts: Counter = Counter()
    #: Layer of every open boundary frame, innermost last.
    open_: List[str] = []

    def tracer(layer: str, boundary: bool):
        def local(frame, event, arg):
            if event == "line":
                counts[layer] += 1
            elif event == "return" and boundary:
                open_.pop()
            return local
        return local

    #: One local tracer per layer for the frames inside it.
    inside = {layer: tracer(layer, False)
              for layer in [*probes.LAYERS, ROOT]}

    def trace(frame, event, arg):  # ``call``: a frame is entered
        probe = codes.get(frame.f_code)
        if probe is None:
            return inside[open_[-1] if open_ else ROOT]
        layer = _layer(probe, frame)
        open_.append(layer)
        return tracer(layer, True)

    counted = _counted(name, ops, seed, sys.settrace, trace)
    return {**counted, "layers": dict(counts)}


def traced_peak_mib(name: str, ops: int, seed: int = SEED) -> float:
    """Peak traced memory over ``name``'s timed region, in MiB."""
    gc.collect()
    tracemalloc.start()
    try:
        steps = workloads.WORKLOADS[name].build(seed, ops)()
        tracemalloc.reset_peak()
        _drive(steps)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _per_op(counted: Dict[str, Any]) -> Dict[str, float]:
    """A count's layers, in table order, divided by its ops."""
    layers = counted["layers"]
    return {layer: layers[layer] / counted["ops"]
            for layer in [*probes.LAYERS, ROOT] if layer in layers}


def measure(names: List[str], smoke: bool, lines: bool = False,
            functions: int = 0, setup: bool = False) -> Dict[str, Any]:
    """The whole table: per workload, frames per op by layer, total and
    the tracemalloc peak; with ``lines``, line events per op too; with
    ``functions``, that many functions with the most frames per op.
    With ``setup``, the builders' frames instead, and no peak."""
    report: Dict[str, Any] = {"schema": "repro-frames/1", "seed": SEED,
                              "pass": "setup" if setup else "timed",
                              "workloads": {}}
    count = count_setup_frames if setup else count_frames
    for name in names:
        ops = default_ops(name, smoke)
        counted = count(name, ops, functions=functions > 0)
        cell = report["workloads"][name] = {
            "ops": counted["ops"],
            "failed": counted["failed"],
            "frames_per_op": _per_op(counted),
            "total_per_op": sum(counted["layers"].values()) / counted["ops"],
        }
        if not setup:
            cell["tracemalloc_peak_mib"] = traced_peak_mib(name, ops)
        if functions:
            top = sorted(counted["functions"].items(),
                         key=lambda item: (-item[1], item[0]))[:functions]
            cell["functions_per_op"] = {
                function: frames / counted["ops"] for function, frames in top}
        if lines:
            traced = count_lines(name, ops)
            cell["lines_per_op"] = _per_op(traced)
            cell["lines_total_per_op"] = (sum(traced["layers"].values())
                                          / traced["ops"])
    return report


def _table(cells: Dict[str, Any], title: str, per_op: str,
           total: str) -> List[str]:
    """Layers down, workloads across; a layer no workload enters is
    left out."""
    names = list(cells)
    width = max(12, *(len(name) for name in names))
    layers = [layer for layer in [*probes.LAYERS, ROOT]
              if any(layer in cells[name][per_op] for name in names)]
    rows = [f"{title:<20}" + "".join(f" {name:>{width}}" for name in names)]
    for layer in layers:
        rows.append(f"{layer:<20}" + "".join(
            f" {cells[name][per_op].get(layer, 0):>{width}.2f}"
            for name in names))
    rows.append(f"{'total':<20}" + "".join(
        f" {cells[name][total]:>{width}.2f}" for name in names))
    return rows


def render(report: Dict[str, Any]) -> str:
    """The frames table with the op counts and tracemalloc peaks, then
    the lines table when the report has one."""
    cells = report["workloads"]
    names = list(cells)
    width = max(12, *(len(name) for name in names))
    setup = report["pass"] == "setup"
    what = "set-up frames per op" if setup else "frames per op"
    rows = _table(cells, what, "frames_per_op", "total_per_op")
    rows.append(f"{'ops':<20}" + "".join(
        f" {cells[name]['ops']:>{width}d}" for name in names))
    if not setup:
        rows.append(f"{'tracemalloc MiB':<20}" + "".join(
            f" {cells[name]['tracemalloc_peak_mib']:>{width}.1f}"
            for name in names))
    if all("lines_per_op" in cell for cell in cells.values()):
        rows.append("")
        rows.extend(_table(cells, "lines per op", "lines_per_op",
                           "lines_total_per_op"))
    for name, cell in cells.items():
        top = cell.get("functions_per_op")
        if top:
            rows += ["", f"{name}: top {len(top)} functions, {what}"]
            rows += [f"{frames:>12.2f}  {function}"
                     for function, frames in top.items()]
    return "\n".join(rows)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all six)")
    parser.add_argument("--smoke", action="store_true",
                        help="a quarter of the op count (CI sizing)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the numbers to PATH")
    parser.add_argument("--lines", action="store_true",
                        help="also count line events per op by layer "
                             "(sys.settrace; sees loops inside a frame)")
    parser.add_argument("--functions", type=int, default=0, metavar="N",
                        help="also list, per workload, the N functions "
                             "with the most frames per op")
    parser.add_argument("--setup", action="store_true",
                        help="count each workload's build (after a "
                             "warm-up build) instead of its timed region")
    args = parser.parse_args(argv)
    if args.functions < 0:
        parser.error("--functions must be 0 or more")
    if args.setup and args.lines:
        parser.error("--lines counts the timed region; not with --setup")
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    report = measure(names, args.smoke, args.lines, args.functions,
                     args.setup)
    print(render(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    failed = [name for name, cell in report["workloads"].items()
              if cell["failed"]]
    for name in failed:
        print(f"failed: {name}: {report['workloads'][name]['failed']} "
              "op(s) failed their check", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
