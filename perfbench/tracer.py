"""Call tracing for the per-layer metrics, done from outside the program.

A `Tracer` replaces a fixed list of peskine_lab functions and methods by
wrappers that record calls, items processed, inclusive time and self time
(inclusive time minus the time of wrapped calls nested inside).  A module
function is replaced in every peskine_lab module that binds it, so names
imported with `from .scan import ...` are traced too.  `restore` puts
every original object back.

Spans form a single stack, so tracing assumes the program's default of
one worker thread.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


PACKAGE = "peskine_lab"


def _first_len(index):
    return lambda args, kwargs: len(args[index])


# (module, attribute path, items counted per call); the metric name is
# the module plus the function's own name, as in "subspaces.from_rows".
TARGETS = (
    ("scan", "batched_rank", _first_len(0)),
    ("scan", "batched_contract1", _first_len(1)),
    ("scan", "run_chunked", None),
    ("scan", "projective_chunks", None),
    ("linalg", "rref", None),
    ("subspaces", "Subspace.contains_vector", None),
    ("subspaces", "Subspace.from_rows", None),
    ("trivector", "Trivector.contract1", None),
    ("polynomial", "Poly.evaluate_batch", _first_len(1)),
    ("rng", "Rng.below", None),
    ("orbits", "pencil_cubics", None),
    ("loci", "peskine_points", None),
    ("loci", "k3_member", None),
    ("loci", "conic_fiber", None),
    ("divisors", "rank4_points", None),
    ("fibration", "sigma_prime_rank_scan", None),
    ("fibration", "quadric_pencil", None),
    ("fibration", "fiber_profile", None),
    ("estimators", "slice_dim_estimate", None),
)


def metric_name(module: str, path: str) -> str:
    return f"{module}.{path.rsplit('.', 1)[-1]}"


class Stats:
    """What one traced stretch of work recorded."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        # items of `name` recorded while `ancestor` was running
        self.items_under: dict[tuple[str, str], int] = defaultdict(int)
        self.max_chunks = 0


class Tracer:
    def __init__(self) -> None:
        self.stats = Stats()
        self._stack: list[list] = []  # [name, start, nested time]
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, name: str, items: int, call: bool = True) -> None:
        _, start, nested = self._stack.pop()
        dur = time.perf_counter() - start
        st = self.stats
        st.calls[name] += call
        st.items[name] += items
        st.incl[name] += dur
        st.self_s[name] += dur - nested
        for anc in {frame[0] for frame in self._stack}:
            st.items_under[(anc, name)] += items
        if self._stack:
            self._stack[-1][2] += dur

    def _wrap_call(self, name, fn, count):
        def traced(*args, **kwargs):
            self._enter(name)
            items = 0
            try:
                items = count(args, kwargs) if count else 0
                return fn(*args, **kwargs)
            finally:
                self._exit(name, items)

        return traced

    def _wrap_chunks(self, name, fn):
        """A generator of point blocks: one span per block produced."""

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            self.stats.calls[name] += 1
            while True:
                self._enter(name)
                try:
                    block = next(gen)
                except StopIteration:
                    self._exit(name, 0, call=False)
                    return
                self._exit(name, len(block), call=False)
                yield block

        return traced

    def _wrap_run_chunked(self, name, fn):
        """Counts chunks produced but not yet handed back by the worker.

        The worker callback is timed as part of the function that called
        run_chunked, whose work it does.
        """

        def traced(worker, chunks, *args, **kwargs):
            held = [0]
            caller = self._stack[-1][0] if self._stack else None

            def produced():
                for chunk in chunks:
                    held[0] += 1
                    self.stats.max_chunks = max(self.stats.max_chunks, held[0])
                    yield chunk

            def work(chunk):
                if caller:
                    self._enter(caller)
                try:
                    return worker(chunk)
                finally:
                    held[0] -= 1
                    if caller:
                        self._exit(caller, 0, call=False)

            self._enter(name)
            try:
                return fn(work, produced(), *args, **kwargs)
            finally:
                self._exit(name, 0)

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod_name, path, count in TARGETS:
            name = metric_name(mod_name, path)
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                raw = owner.__dict__[attr]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapped = self._wrapper(name, fn, count)
                self._replace(owner, attr, raw, classmethod(wrapped) if is_classmethod else wrapped)
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrapper(name, fn, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, key, fn, wrapped)

    def _wrapper(self, name, fn, count):
        if name == "scan.run_chunked":
            return self._wrap_run_chunked(name, fn)
        if name == "scan.projective_chunks":
            return self._wrap_chunks(name, fn)
        return self._wrap_call(name, fn, count)

    def _replace(self, owner, attr, original, new) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put back every original binding and verify that it is back."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        for owner, attr, original in self._saved:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                raise RuntimeError(f"failed to restore {owner!r}.{attr}")
        self._saved = []

    def take(self) -> Stats:
        """Hand over the stats recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("open spans remain")
        stats, self.stats = self.stats, Stats()
        return stats
