"""In-memory span tracer around the public functions of the ``wfhsim`` modules.

The tracer changes no program file.  :meth:`Tracer.install` replaces every
public function of a public ``wfhsim`` module at every ``wfhsim.*`` module
attribute bound to it (``conditional_tables`` is bound in ``wf_receiver``,
``info_metrics`` and ``security``) with one wrapper that records a span:
name, start, end, parent, thread and the exception type it exited with.
:meth:`Tracer.uninstall` restores the original bindings.

Spans are kept in memory; the caller writes them out when it ends.  A span
opened on a thread with no open span of its own (a CLI pool thread) takes the
open ``cli.cmd_*`` command span as its parent.  A span's self time is its
duration minus the part of it that its child spans cover.

Each span also records the CPU time of its thread.  On the CLI's pool
threads a span's wall time includes waiting for the interpreter lock, which
lands on whatever call a thread was in when it lost the lock; self CPU time
(the span's thread CPU minus that of its children on the same thread) is the
work the layer itself did.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np

PACKAGE = "wfhsim"
COMMAND_PREFIX = "cli.cmd_"

# Helpers called once per table cell (format_value: 4.8 million calls in the
# lock study) or once per quadrature node and symbol (the rest: up to 50k
# calls per jitter-mi sweep).  A span each would cost more than the work it
# measures, so their time stays in the self time of the calling span.
UNWRAPPED = frozenset(
    {
        "io.format_value",
        "constellation.wrap_phase",
        "homodyne.conditional_mean",
        "homodyne.hd_conditional_pdf",
        "wf_receiver.branch_means",
        "wf_receiver.poisson_pmf",
    }
)


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    error: str | None
    cpu: float

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _observe_tables(tracer: "Tracer", parent: str | None, args, kwargs, tables) -> None:
    cells = sum(t.probs.size for t in tables)
    tracer.add("wf_receiver.table_cells", cells)
    if parent != "security.conditional_eve_entropy":
        return
    # the outcomes the Holevo scan walks: p(o) = sum_k prior_k p(o|k)
    c = args[0] if args else kwargs["c"]
    threshold = sys.modules[f"{PACKAGE}.security"].OUTCOME_SKIP_THRESHOLD
    priors = np.array([s.prior for s in c.symbols])
    p_o = priors @ np.stack([t.probs.ravel() for t in tables])
    tracer.add("security.outcomes_scanned", p_o.size)
    tracer.add("security.outcomes_kept", int(np.count_nonzero(p_o >= threshold)))


def _observe_mi(tracer: "Tracer", parent, args, kwargs, result) -> None:
    tracer.maximum("info_metrics.max_truncation_mass", result.truncation_mass)


def _observe_experiment(tracer: "Tracer", parent, args, kwargs, counts) -> None:
    tracer.add("detector_sim.shots", sum(counts.values()))


def _observe_lock(tracer: "Tracer", parent, args, kwargs, trace) -> None:
    tracer.add("lock_sim.samples", len(trace))


# Counters read from what a call returned, keyed by span name.
COUNTERS = (
    "wf_receiver.table_cells",
    "security.outcomes_scanned",
    "security.outcomes_kept",
    "detector_sim.shots",
    "lock_sim.samples",
)
OBSERVERS = {
    "wf_receiver.conditional_tables": _observe_tables,
    "info_metrics.wf_mutual_information": _observe_mi,
    "detector_sim.run_experiment": _observe_experiment,
    "lock_sim.simulate_lock": _observe_lock,
}


class Tracer:
    """Records spans and counters while installed; not re-entrant."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter(dict.fromkeys(COUNTERS, 0))
        self.maxima: dict[str, float] = {}
        self.names: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._command: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- counters, safe from pool threads --------------------------------

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] += value

    def maximum(self, key: str, value: float) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[object, object] = {}
        for modname, module in sorted(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            if modname.rsplit(".", 1)[-1].startswith("_"):
                continue
            for attr, value in list(vars(module).items()):
                name = _span_name(attr, value)
                if name is None or name in UNWRAPPED:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(name, value)
                    self.names.add(name)
                setattr(module, attr, wrappers[value])
                self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        is_command = name.startswith(COMMAND_PREFIX)
        local, spans, ids = self._local, self.spans, self._ids
        wall, thread_cpu, get_ident = time.perf_counter, time.thread_time, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if stack:
                parent, parent_name = stack[-1]
            else:
                parent, parent_name = self._command, None
            sid = next(ids)
            stack.append((sid, name))
            if is_command:
                self._command = sid
            error = None
            cpu_start = thread_cpu()
            start = wall()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = wall()
                cpu = thread_cpu() - cpu_start
                stack.pop()
                if is_command:
                    self._command = None
                spans.append(Span(sid, parent, name, start, end, get_ident(), error, cpu))
            if observe is not None:
                observe(self, parent_name, args, kwargs, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced


def _span_name(attr: str, value) -> str | None:
    """``module.function`` for a public function of a public wfhsim module."""
    if attr.startswith("_") or not inspect.isfunction(value):
        return None
    if getattr(value, "__wrapped_by_perfbench__", False):
        raise RuntimeError(f"{attr} is already traced")
    home = value.__module__ or ""
    if not home.startswith(PACKAGE + "."):
        return None
    short = home.rsplit(".", 1)[-1]
    if short.startswith("_"):
        return None
    return f"{short}.{value.__name__}"


# ------------------------------------------------------------------ analysis


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        elif end > hi:
            hi = end
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans: list[Span]) -> tuple[dict[int, float], dict[int, float], float]:
    """Self wall time and self CPU time of every span, and the time siblings overlap.

    The overlap is nonzero only where siblings run at once, on pool threads.
    For a trace with one root, sum(self wall) == root duration + overlap.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    wall: dict[int, float] = {}
    cpu: dict[int, float] = {}
    overlap = 0.0
    for s in spans:
        kids = children.get(s.sid, [])
        covered = _covered([(k.start, k.end) for k in kids])
        wall[s.sid] = s.duration - covered
        cpu[s.sid] = s.cpu - sum(k.cpu for k in kids if k.thread == s.thread)
        overlap += sum(k.duration for k in kids) - covered
    return wall, cpu, overlap


def pool_busy_time(spans: list[Span]) -> tuple[float, float]:
    """(span time on pool threads, command span time of commands that used them)."""
    by_id = {s.sid: s for s in spans}
    busy = 0.0
    pooled_commands: set[int] = set()
    for s in spans:
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is not None and parent.thread != s.thread:
            busy += s.duration
            pooled_commands.add(parent.sid)
    return busy, sum(by_id[c].duration for c in pooled_commands)


def innermost_errors(spans: list[Span]) -> Counter:
    """Exception types by the span that raised them, not each span they crossed."""
    erring_parents = {s.parent for s in spans if s.error is not None}
    return Counter(
        s.error for s in spans if s.error is not None and s.sid not in erring_parents
    )


def write_spans(path, spans: list[Span]) -> None:
    """One CSV line per span, times relative to the first span's start."""
    t0 = min((s.start for s in spans), default=0.0)
    threads: dict[int, int] = {}
    lines = ["sid,parent,name,start_s,end_s,cpu_s,thread,error"]
    for s in sorted(spans, key=lambda s: s.sid):
        thread = threads.setdefault(s.thread, len(threads))
        parent = "" if s.parent is None else s.parent
        lines.append(
            f"{s.sid},{parent},{s.name},{s.start - t0:.9f},{s.end - t0:.9f},"
            f"{s.cpu:.9f},{thread},{s.error or ''}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
