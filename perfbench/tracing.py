"""Layer-boundary spans recorded from the benchmark's own code.

A traced pass swaps the public entry points of each layer (and the few
internal call sites the per-layer metrics need, such as the serve
layer's clean replay) for thin wrappers that record a span around every
call.  A span holds its name, start, end, parent span and the item id
the workload set when the call began (one design point, pod call, served
batch or bootstrap round).  Spans stay in memory; :meth:`Tracer.dump`
writes them out when the run ends.  Untraced passes get a fresh,
unpatched :class:`Tracer`, which records nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


def _program_ops(args, kwargs, result) -> int:
    return len(args[0].ops)


def _result_ops(args, kwargs, result) -> int:
    return len(result.ops)


#: (owner, attribute, span name, op-count extractor).  Owners are module
#: paths, or ``module:Class`` for methods.  Modules that bind a function
#: at import time (``from x import f``) are patched at that binding too,
#: so calls from inside the program are seen.
PATCHES = (
    ("repro.workloads", "benchmark", "workloads.build", _result_ops),
    ("repro.compiler.cache", "compile_program", "compiler.compile_program",
     None),
    ("repro.serve.server", "compile_program", "compiler.compile_program",
     None),
    ("repro.compiler.hoisting", "hoist_rotations", "compiler.hoist", None),
    ("repro.compiler.ordering", "order_for_pressure", "compiler.pressure",
     None),
    ("repro.core.simulator", "simulate", "core.simulate", _program_ops),
    ("repro.pod.simulator", "simulate", "core.simulate", _program_ops),
    ("repro.serve.server", "simulate", "core.simulate", _program_ops),
    ("repro.pod.simulator", "simulate_pod", "pod.simulate_pod", None),
    ("repro.pod.simulator", "partition", "pod.partition", None),
    ("repro.serve.server:Server", "submit", "serve.submit", None),
    ("repro.serve.server:Server", "pump", "serve.pump", None),
    ("repro.serve.server:Server", "_verify", "reliability.verify", None),
    ("repro.reliability.recovery:RecoveringExecutor", "run",
     "reliability.run", None),
    ("repro.fhe.ckks:CkksContext", "encrypt_values", "fhe.encrypt", None),
    ("repro.fhe.ckks:CkksContext", "decrypt", "fhe.decrypt", None),
    ("repro.fhe.ckks:CkksContext", "pmult", "fhe.pmult", None),
    ("repro.fhe.bootstrap:Bootstrapper", "bootstrap", "fhe.bootstrap", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans; -1 for a root span
    item: str
    ops: int = 0         # IR ops handled, for calls that take a program

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for traced passes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = ""
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._paused = False

    @contextmanager
    def span(self, name: str):
        sp = Span(name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1, self.item)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Record no spans in the ``with`` body (work a workload leaves
        out of its pass, such as building the pass's servers)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, fn, name: str, ops=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if ops is not None:
                    sp.ops = ops(args, kwargs, result)
                return result
        return traced

    @contextmanager
    def patched(self):
        """Install the :data:`PATCHES` wrappers for the ``with`` body.

        A target the program no longer has is skipped and listed in
        :attr:`missing` (its per-layer metrics then read 0), so a
        refactor of the program cannot crash the benchmark.
        """
        saved = []
        try:
            for owner_path, attr, name, ops in PATCHES:
                module, _, cls = owner_path.partition(":")
                owner = importlib.import_module(module)
                if cls:
                    owner = getattr(owner, cls, None)
                if owner is None or not hasattr(owner, attr):
                    self.missing.append(f"{owner_path}.{attr}")
                    continue
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, ops))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.dur for s in self.named(name))

    def parent_name(self, sp: Span) -> str:
        return self.spans[sp.parent].name if sp.parent >= 0 else ""

    def has_ancestor(self, sp: Span, name: str) -> bool:
        while sp.parent >= 0:
            sp = self.spans[sp.parent]
            if sp.name == name:
                return True
        return False

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their direct children."""
        child_dur: dict[int, float] = {}
        for s in self.spans:
            if s.parent >= 0:
                child_dur[s.parent] = child_dur.get(s.parent, 0.0) + s.dur
        return sum(s.dur - child_dur.get(i, 0.0)
                   for i, s in enumerate(self.spans) if s.name == name)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
        if self.missing:
            print("untraced (not found in the program): "
                  + ", ".join(self.missing), file=sys.stderr)
