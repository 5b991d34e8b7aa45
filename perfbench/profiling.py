"""The profiled run's instruments: timing wrappers and a grouped cProfile.

Per-layer host time comes from cProfile self time grouped by
``repro.<pkg>``.  ``ufs``, ``disk`` and ``kernel`` are generator code whose
work runs inside ``generator.send``: cProfile charges each resumed
generator frame to its own function, so their cost shows up under their
package, whereas a wrapper around their calls would time only generator
creation.  Time in native or standard-library functions is charged to the
package of the function that called them, in proportion to the time each
caller spent there.

The public calls that return when their work is done (the sanitizer
checkpoint, the page cache's per-vnode scan, the syscalls) are wrapped
instead, for exact counts and direct host timers.
"""

from __future__ import annotations

import re
import sys
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import repro
from repro.kernel import syscalls
from repro.kernel.syscalls import Proc
from repro.sim.invariants import Sanitizer
from repro.vm.pagecache import PageCache

from perfbench.workloads import patched

REPRO_DIR = Path(repro.__file__).resolve().parent
BENCH_DIR = Path(__file__).resolve().parent

#: ``repro/sim`` modules that make up the event engine: the heap loop and
#: the process trampoline (``Engine.step`` -> ``Process._resume`` ->
#: ``_step`` -> ``send``).
ENGINE_MODULES = {"engine", "events", "resources"}


class LayerProbe:
    """Counting and timing wrappers around public calls into the layers."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.checkpoint_s = 0.0
        self.vnode_pages_calls = 0
        self.vnode_pages_s = 0.0
        self.pages_returned = 0
        #: Named pages resident at each call: what a whole-cache scan
        #: visits to find the vnode's pages.
        self.pages_resident = 0
        self.syscalls = 0

    def values(self) -> dict[str, float]:
        return {
            "sim.invariants.host_s": self.checkpoint_s,
            "vm.vnode_pages.calls": self.vnode_pages_calls,
            "vm.vnode_pages.host_s": self.vnode_pages_s,
            "vm.vnode_pages.scan_ratio": (
                self.pages_returned / self.pages_resident
                if self.pages_resident else 0.0),
            "kernel.syscalls": self.syscalls,
        }

    def _wrap_checkpoint(self, checkpoint: Callable[..., None]):
        def timed_checkpoint(sanitizer, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return checkpoint(sanitizer, *args, **kwargs)
            finally:
                self.checkpoint_s += time.perf_counter() - t0
        return timed_checkpoint

    def _wrap_vnode_pages(self, vnode_pages: Callable[..., list]):
        def timed_vnode_pages(pagecache, vnode):
            resident = pagecache.named_pages
            t0 = time.perf_counter()
            pages = vnode_pages(pagecache, vnode)
            self.vnode_pages_s += time.perf_counter() - t0
            self.vnode_pages_calls += 1
            self.pages_returned += len(pages)
            self.pages_resident += resident
            return pages
        return timed_vnode_pages

    def _wrap_syscall(self, method: Callable[..., Any]):
        inner = syscalls.__file__

        def counted_syscall(*args, **kwargs):
            # Count calls from outside the kernel only, so a syscall built
            # on another (creat on open) counts once.
            if sys._getframe(1).f_code.co_filename != inner:
                self.syscalls += 1
            return method(*args, **kwargs)
        return counted_syscall

    @contextmanager
    def installed(self) -> Iterator["LayerProbe"]:
        with ExitStack() as stack:
            stack.enter_context(patched(Sanitizer, "checkpoint",
                                        self._wrap_checkpoint))
            stack.enter_context(patched(PageCache, "vnode_pages",
                                        self._wrap_vnode_pages))
            for name, value in list(vars(Proc).items()):
                if not name.startswith("_") and callable(value):
                    stack.enter_context(patched(Proc, name,
                                                self._wrap_syscall))
            yield self


def layer_of(filename: str) -> "str | None":
    """The layer a source file belongs to, or None outside the program.

    ``repro/<pkg>/...`` is layer ``<pkg>``, except that ``repro/sim`` is
    split per module (``sim.trace``, ``sim.invariants``, ...), with the
    engine's modules together as ``sim.engine``.  The benchmark's own
    files are layer ``perfbench``.
    """
    path = Path(filename)
    if not path.is_absolute():
        return None
    if path.is_relative_to(BENCH_DIR):
        return "perfbench"
    if not path.is_relative_to(REPRO_DIR):
        return None
    parts = path.relative_to(REPRO_DIR).parts
    if len(parts) == 1:
        return "repro"
    if parts[0] == "sim":
        module = Path(parts[1]).stem
        return "sim.engine" if module in ENGINE_MODULES else f"sim.{module}"
    return parts[0]


_BUILTIN = re.compile(r"<built-in method (?P<name>[\w.]+)>")
_METHOD = re.compile(r"<method '(?P<meth>\w+)' of '(?P<cls>[\w.]+)' objects>")


def frame_name(key: tuple[str, int, str]) -> str:
    """A flamegraph frame for a cProfile function key: ``module.func``."""
    filename, _, name = key
    builtin = _BUILTIN.fullmatch(name)
    if builtin:
        return builtin["name"]
    method = _METHOD.fullmatch(name)
    if method:
        return f"{method['cls']}.{method['meth']}"
    if filename != "~":
        name = f"{Path(filename).stem}.{name}"
    return re.sub(r"[\s;]+", "_", name)


def group_profile(stats: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Self seconds per layer and per ``layer;frame`` folded stack.

    ``stats`` is ``pstats.Stats(...).stats``.  A function outside the
    program is charged to the layers of its callers, in proportion to the
    self time each caller's calls took; what no program caller claims is
    layer ``other``.
    """
    folded: dict[str, float] = {}

    def charge(layer: str, frame: str, seconds: float) -> None:
        stack = f"{layer};{frame}"
        folded[stack] = folded.get(stack, 0.0) + seconds

    memo: dict[tuple, str] = {}

    def owner(key: tuple) -> str:
        """The layer of ``key``, or of its nearest program ancestor along
        the costliest callers (skipping recursion, as in the json
        encoder)."""
        if key in memo:
            return memo[key]
        seen = {key}
        current = key
        layer = layer_of(current[0])
        while layer is None:
            entry = stats.get(current)
            callers = {c: v[2] for c, v in (entry[4].items() if entry else ())
                       if c not in seen}
            if not callers:
                layer = "other"
                break
            current = max(callers, key=callers.__getitem__)
            seen.add(current)
            layer = memo.get(current) or layer_of(current[0])
        memo[key] = layer
        return layer

    for key, (_, _, self_s, _, callers) in stats.items():
        layer = layer_of(key[0])
        if layer is not None:
            charge(layer, frame_name(key), self_s)
            continue
        by_caller = {c: v[2] for c, v in callers.items()}
        spread = sum(by_caller.values())
        if not callers or spread <= 0.0:
            charge(owner(key), frame_name(key), self_s)
            continue
        for caller, seconds in by_caller.items():
            charge(owner(caller), frame_name(key), self_s * seconds / spread)
    layers: dict[str, float] = {}
    for stack, seconds in folded.items():
        layer = stack.split(";", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    return layers, folded


def folded_lines(folded: dict[str, float]) -> str:
    """Collapsed flamegraph lines in integer microseconds, sorted — the
    format of ``repro.obs.export.folded_stacks``."""
    lines = []
    for stack in sorted(folded):
        usec = round(folded[stack] * 1e6)
        if usec > 0:
            lines.append(f"{stack} {usec}")
    return "\n".join(lines) + ("\n" if lines else "")
