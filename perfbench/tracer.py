"""Per-layer tracing of pseudoheat from outside the program.

The tracer replaces module attributes of the program with wrappers for the
duration of a ``with Tracer()`` block and restores every one of them on
exit.  A name is wrapped in every ``pseudoheat`` module that holds the same
function object, so ``kernel`` is wrapped in ``kernels``, ``cli``,
``verify`` and ``lattice`` at once.

Two kinds of probe exist:

* spans (name, start, end, parent, job id, and the D of the first
  argument where it has one) for calls that are few enough to keep one
  record each: ``kernel``, the three quadrature drivers, the verify
  checks, ``lattice_kernel`` and the geometry helpers.  The job span
  (``cli.main``) is opened by the benchmark itself around each CLI call.
  Spans stay in memory; ``write_spans`` dumps them when the run ends.
* tallies (count and time per name) for the gfunc evaluators and the
  derivative algebra, which run once per integrand evaluation (1.5 million
  calls in one certify pass) and would not fit in memory as spans.

Integrand evaluations are counted by wrapping the callable handed to
``integrate_finite``; their time is what ``quadrature.self_s`` excludes.

Span stacks and tallies are kept per thread, because ``table`` and
``oracle`` run worker threads.  A span opened on a worker thread with an
empty stack takes the current job span as its parent.  Self time is a
span's duration minus the union of its children's intervals, minus the
tally time spent directly under it.

Layer times are measured on the calling thread's CPU clock: with two
table threads contending for the interpreter lock, wall-clock spans would
count the time a call waits for the lock in both threads.  A job span
holds the children of every worker thread, so its self time is taken on
the wall clock.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from dataclasses import dataclass, field

_wall = time.perf_counter
_cpu = time.thread_time

# (module, attribute): calls recorded one span each.
SPAN_TARGETS = (
    ("pseudoheat.kernels", "kernel"),
    ("pseudoheat.quadrature", "integrate_finite"),
    ("pseudoheat.quadrature", "integrate_semi_infinite"),
    ("pseudoheat.quadrature", "integrate_endpoint_singular"),
    ("pseudoheat.verify", "abel_residual"),
    ("pseudoheat.verify", "radial_pde_residual"),
    ("pseudoheat.verify", "horicyclic_pde_residual"),
    ("pseudoheat.verify", "chapman_kolmogorov_many"),
    ("pseudoheat.verify", "mass_multiplicativity"),
    ("pseudoheat.verify", "gfunc_reports"),
    ("pseudoheat.lattice", "lattice_kernel"),
    ("pseudoheat.geometry", "geodesic_distance"),
    ("pseudoheat.geometry", "distance_excess"),
    ("pseudoheat.geometry", "laplace_beltrami_apply"),
    ("pseudoheat.geometry", "sphere_surface_area"),
    ("pseudoheat.geometry", "to_hyperboloid"),
    ("pseudoheat.geometry", "from_hyperboloid"),
    ("pseudoheat.geometry", "normalize_pair"),
    ("pseudoheat.geometry", "log_height"),
    ("pseudoheat.geometry", "minkowski_dot"),
)

# (module, attribute, group).  Time is summed per group over outermost calls.
TALLY_TARGETS = (
    ("pseudoheat.gfunc", "evaluate", "eval"),
    ("pseudoheat.gfunc", "evaluate_auto", "eval"),
    ("pseudoheat.gfunc", "evaluate_near_origin", "eval"),
    ("pseudoheat.gfunc", "_evaluate_terms", "eval"),
    ("pseudoheat.gfunc", "_series_value", "eval"),
    ("pseudoheat.gfunc", "_evaluate_terms_mp", "eval"),
    ("pseudoheat.gfunc", "expression", "algebra"),
    ("pseudoheat.gfunc", "sigma_derivative", "algebra"),
    ("pseudoheat.gfunc", "derivative_terms", "algebra"),
    ("pseudoheat.gfunc", "_h_series", "algebra"),
)

INTEGRAND_HOST = "integrate_finite"



@dataclass
class Span:
    name: str
    start: float  # wall clock
    end: float
    parent: int | None  # index into Tracer.spans, None for a job span
    job: int
    via_integrand: bool  # opened inside an integrand already timed by its parent
    cpu_start: float = 0.0  # CPU clock of the span's thread
    cpu_end: float = 0.0
    covered: float = 0.0  # CPU time of tallies and integrands directly under this span
    evals: int = 0  # integrand evaluations (integrate_finite only)
    failed: bool = False
    dim: int | None = None  # D of the first argument, for kernel, verify and lattice calls


@dataclass
class _Frame:
    span: int
    integrand: bool = False
    covered: float = 0.0
    evals: int = 0


@dataclass
class _ThreadState:
    stack: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    name_time: dict = field(default_factory=dict)
    group_time: dict = field(default_factory=dict)
    group_depth: dict = field(default_factory=dict)
    tally_depth: int = 0


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of [start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus child-covered time, for each span.

    Job spans (no parent) use the wall clock, since their children run on
    several threads; every other span and its children share one thread
    and use its CPU clock.  Children opened inside an integrand are
    skipped: the integrand time already counted them in ``covered``.
    """
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None and not sp.via_integrand:
            children.setdefault(sp.parent, []).append(sp)
    out = []
    for i, sp in enumerate(spans):
        kids = children.get(i, ())
        if sp.parent is None:
            lo, hi = sp.start, sp.end
            covered = union_length([(c.start, c.end) for c in kids], lo, hi)
        else:
            lo, hi = sp.cpu_start, sp.cpu_end
            covered = union_length([(c.cpu_start, c.cpu_end) for c in kids], lo, hi)
        out.append(max(0.0, hi - lo - covered - sp.covered))
    return out


class Tracer:
    """Context manager that wraps program functions and records spans."""

    def __init__(self):
        quadrature = sys.modules.get("pseudoheat.quadrature")
        self._nonconv = getattr(quadrature, "NonConvergenceError", None)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.spans: list[Span] = []
        self._job_span: int | None = None
        self._job_id = 0

    # --- per-thread state -------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    # --- patching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for mod, attr in SPAN_TARGETS:
                self._patch(mod, attr, self._span_wrapper)
            for mod, attr, group in TALLY_TARGETS:
                self._patch(mod, attr, lambda fn, name, g=group: self._tally_wrapper(fn, name, g))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, mod_name: str, attr: str, make) -> None:
        home = sys.modules.get(mod_name)
        original = getattr(home, attr, None) if home is not None else None
        if original is None:
            self.absent.append(f"{mod_name}.{attr}")
            return
        wrapper = make(original, attr)
        for name, mod in list(sys.modules.items()):
            if name != "pseudoheat" and not name.startswith("pseudoheat."):
                continue
            if mod is not None and vars(mod).get(attr) is original:
                setattr(mod, attr, wrapper)
                self._patched.append((mod, attr, original))

    def restore(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patched)

    # --- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def job(self, name: str = "cli.main"):
        """One job span on the calling thread; spans that worker threads open
        with an empty stack become its children."""
        st = self._state()
        self._job_id += 1
        idx = self._open(st, name)
        sp = self.spans[idx]
        sp.parent = None
        self._job_span = idx
        frame = _Frame(idx)
        st.stack.append(frame)
        sp.cpu_start = _cpu()
        sp.start = _wall()
        try:
            yield idx
        finally:
            sp.end = _wall()
            sp.cpu_end = _cpu()
            st.stack.pop()
            sp.covered = frame.covered
            self._job_span = None

    def _open(self, st: _ThreadState, name: str) -> int:
        if st.stack:
            top = st.stack[-1]
            parent, via = top.span, top.integrand
        else:
            parent, via = self._job_span, False
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, parent, self._job_id, via))
        return idx

    def _span_wrapper(self, fn, name):
        counts_evals = name == INTEGRAND_HOST
        nonconv = self._nonconv

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            idx = self._open(st, name)
            frame = _Frame(idx)
            st.stack.append(frame)
            if counts_evals:
                args, kwargs = self._count_integrand(st, frame, args, kwargs)
            sp = self.spans[idx]
            if args:
                sp.dim = getattr(args[0], "D", None)
            sp.cpu_start = _cpu()
            sp.start = _wall()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if nonconv is not None and isinstance(exc, nonconv):
                    sp.failed = True
                raise
            finally:
                sp.end = _wall()
                sp.cpu_end = _cpu()
                st.stack.pop()
                sp.covered = frame.covered
                sp.evals = frame.evals

        return wrapper

    def _count_integrand(self, st: _ThreadState, owner: _Frame, args, kwargs):
        if args:
            f, rest = args[0], args[1:]
        else:
            f, rest = kwargs.pop("f"), ()

        def counted(x):
            inner = _Frame(owner.span, integrand=True)
            st.stack.append(inner)
            t0 = _cpu()
            try:
                return f(x)
            finally:
                owner.covered += _cpu() - t0
                owner.evals += 1
                st.stack.pop()

        return (counted,) + tuple(rest), kwargs

    # --- tallies ----------------------------------------------------------

    def _tally_wrapper(self, fn, name, group):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            st.counts[name] = st.counts.get(name, 0) + 1
            st.group_depth[group] = st.group_depth.get(group, 0) + 1
            st.tally_depth += 1
            t0 = _cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _cpu() - t0
                st.tally_depth -= 1
                st.group_depth[group] -= 1
                st.name_time[name] = st.name_time.get(name, 0.0) + dt
                if st.group_depth[group] == 0:
                    st.group_time[group] = st.group_time.get(group, 0.0) + dt
                if st.tally_depth == 0 and st.stack:
                    st.stack[-1].covered += dt

        return wrapper

    # --- results ----------------------------------------------------------

    def _merged(self, field: str) -> dict:
        out: dict = {}
        for st in self._states:
            for k, v in getattr(st, field).items():
                out[k] = out.get(k, 0) + v
        return out

    def counts(self) -> dict[str, int]:
        """Calls per tallied function name, over all threads."""
        return self._merged("counts")

    def name_time(self) -> dict[str, float]:
        """CPU seconds per tallied function name, nested calls included."""
        return self._merged("name_time")

    def group_time(self) -> dict[str, float]:
        """CPU seconds per tally group, outermost calls only."""
        return self._merged("group_time")

    def write_spans(self, path) -> None:
        """One CSV line per span: index, name, start, end, parent, job, evals."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,job,evals\n")
            for i, sp in enumerate(self.spans):
                parent = "" if sp.parent is None else sp.parent
                fh.write(f"{i},{sp.name},{sp.start!r},{sp.end!r},{parent},{sp.job},{sp.evals}\n")
