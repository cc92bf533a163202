"""Outside-in span recording for the bergman-lab benchmark.

The benchmark times each layer of ``blab`` by wrapping its public functions
from outside the package, so ``src/blab`` itself carries no tracing code.
A span has a name, a start, an end, a parent span and the index of the op
that caused it.  Spans and counters stay in memory until the run ends.

``blab`` modules bind each other's functions by name (``lab`` imports
``make_domain`` and ``rho1`` from ``geom``; ``kernel`` and ``zeros`` import
``distance_field``), so a wrapper replaces every binding of the original
function in every given module, not only the one in its home module.
Methods are wrapped on their class.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

OP = "op"          # root span of one benchmark op
EXPERIMENT = "lab.run"  # one experiment run; its self time is lab overhead


@dataclass
class Span:
    sid: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans and counters of one run, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.op = -1
        self._open: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._open[-1].sid if self._open else None
        s = Span(len(self.spans), parent, self.op, name, self.clock())
        self.spans.append(s)
        self._open.append(s)
        return s

    def close(self, s: Span) -> None:
        s.end = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def innermost(self, name: str) -> Span | None:
        """The innermost open span called name, if any."""
        return next((s for s in reversed(self._open) if s.name == name), None)

    def add(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def to_dict(self) -> dict:
        return {"spans": [[s.sid, s.parent, s.op, s.name, s.start, s.end]
                          for s in self.spans],
                "counters": self.counters, "maxima": self.maxima}


# ---------------------------------------------------------------------------
# wrapping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """One function or method to time.

    owner is the module or class that defines attr.  count(rec, args,
    kwargs, result) records counters after a successful call; errors counts
    each exception of that type under error_counter before re-raising.
    """

    owner: object
    attr: str
    span: str
    count: Callable | None = None
    errors: type | None = None
    error_counter: str = ""


def _wrapper(rec: Recorder, target: Target, original: Callable) -> Callable:
    @functools.wraps(original)
    def traced(*args, **kwargs):
        s = rec.open(target.span)
        try:
            result = original(*args, **kwargs)
        except Exception as e:
            if target.errors is not None and isinstance(e, target.errors):
                rec.add(target.error_counter)
            raise
        finally:
            rec.close(s)
        if target.count is not None:
            target.count(rec, args, kwargs, result)
        return result
    return traced


class Patch:
    """Context manager installing span wrappers; restores on exit.

    A module-level target is rebound under every name, in every module of
    ``modules``, that refers to the original object.
    """

    def __init__(self, rec: Recorder, targets: list[Target], modules: list):
        self.rec = rec
        self.targets = targets
        self.modules = modules
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patch":
        try:
            for t in self.targets:
                self._install(t)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self, t: Target) -> None:
        if isinstance(t.owner, type):
            original = vars(t.owner)[t.attr]
            self._set(t.owner, t.attr, _wrapper(self.rec, t, original))
            return
        original = getattr(t.owner, t.attr)
        wrapped = _wrapper(self.rec, t, original)
        bound = 0
        for m in self.modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    self._set(m, name, wrapped)
                    bound += 1
        if not bound:
            raise LookupError(f"{t.attr} is bound in none of the given modules")

    def _set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the durations of its children.

    Spans come from one thread and nest properly, so children of one parent
    never overlap and their durations add.
    """
    out = {s.sid: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.seconds
    return out


def outermost(spans: list[Span]) -> list[Span]:
    """Spans with no ancestor of the same name (recursion counted once)."""
    by_id = {s.sid: s for s in spans}
    keep = []
    for s in spans:
        p = by_id.get(s.parent)
        while p is not None and p.name != s.name:
            p = by_id.get(p.parent)
        if p is None:
            keep.append(s)
    return keep


def self_time_by(spans: list[Span], key: Callable[[Span], str]) -> dict[str, float]:
    """Total self time per key(span), e.g. per span name or per layer."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[key(s)] = out.get(key(s), 0.0) + own[s.sid]
    return out


def coverage(spans: list[Span]) -> float:
    """Share of op wall time spent inside layer spans.

    Everything except the self time of the op root and of the experiment
    run (lab code outside every layer call) counts as layer time.
    """
    own = self_times(spans)
    wall = sum(s.seconds for s in spans if s.name == OP)
    uncovered = sum(own[s.sid] for s in spans if s.name in (OP, EXPERIMENT))
    return (wall - uncovered) / wall
