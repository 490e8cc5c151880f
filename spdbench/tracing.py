"""In-memory span tracing for the traced benchmark run.

Nothing here changes the program: the tracer wraps the functions each layer
is called through, from the outside.  The modules of ``spdmeans`` import
kernels by name (``from .linalg import eig_hermitian``), so replacing the
attribute on the defining module alone would miss most callers; ``install``
therefore puts the wrapper into every ``spdmeans`` module namespace that
holds the original function object, and onto the class for methods.

Each span records its name, a tag, its start and end (``perf_counter``
seconds) and the id of the enclosing span (-1 at the top).  Spans stay in
memory until ``write_spans`` is called when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One traced function: ``attr`` is ``name`` or ``Class.name`` in ``module``.

    ``tag`` maps the call's arguments to a string stored on the span (taken
    before the call runs); ``after`` receives the tracer and the return value.
    """

    module: str
    attr: str
    span: str
    tag: object = None
    after: object = None


class Tracer:
    """Span store plus named counters, filled by the installed wrappers."""

    def __init__(self):
        self.names: list = []
        self.tags: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.counters: dict = {}
        self._stack: list = []

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, fn, target: Target):
        names, tags, starts, ends = self.names, self.tags, self.starts, self.ends
        parents, stack, clock = self.parents, self._stack, time.perf_counter
        span, tag_of, after = target.span, target.tag, target.after

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(span)
            tags.append(tag_of(*args, **kwargs) if tag_of is not None else "")
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        return traced

    def summary(self) -> dict:
        """{(span, tag): [calls, inclusive seconds, self seconds]}.

        Self time is a span's duration minus the durations of its direct
        children, so work no traced function covers is charged to the
        nearest traced caller.
        """
        starts, ends, parents = self.starts, self.ends, self.parents
        child = [0.0] * len(starts)
        for sid, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[sid] - starts[sid]
        out: dict = {}
        for sid, key in enumerate(zip(self.names, self.tags)):
            dur = ends[sid] - starts[sid]
            row = out.setdefault(key, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[sid]
        return out

    def write_spans(self, path) -> None:
        """Write every span as gzipped CSV: id,parent,name,tag,start_s,end_s."""
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("id,parent,name,tag,start_s,end_s\n")
            for sid, (name, tag, parent, start, end) in enumerate(
                zip(self.names, self.tags, self.parents, self.starts, self.ends)
            ):
                fh.write(f"{sid},{parent},{name},{tag},{start:.9f},{end:.9f}\n")


def _program_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "spdmeans" or name.startswith("spdmeans."))
    ]


def install(tracer: Tracer, targets) -> list:
    """Wrap every target; returns the (owner, attr, original) list to undo."""
    patched = []
    for target in targets:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(original, target))
            patched.append((owner, attr, original))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(original, target)
        for mod in _program_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patched.append((mod, key, original))
    return patched


def uninstall(patched) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)
