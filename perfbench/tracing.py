"""Outside-in tracing of the symten layers.

Every public function of every `symten` submodule is wrapped, and every
module attribute that refers to it is rebound to the wrapper: `cli` and
`decision` import names directly, and a module calling its own function
(`linalg.is_independent` calling `rank`) looks the name up in its own
globals, so rebinding the attribute catches those calls too.  Private
helpers are not wrapped; their time is self time of the public caller
(the matching backtrack `_search_matching` counts in `decide_equality`).
A function returning a generator or iterator is timed until it returns,
so consuming the iterator counts in the consumer.

Spans (function, start, end, parent span, command) and counts are kept in
memory and written out when the run ends.  Self time is a span's duration
minus the time covered by its child spans.  Wrapper costs, such as hashing
each matrix for the rank-repeat count, fall in the caller's self time; the
run reports their total as the tracing overhead.
"""
from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import defaultdict

LAYERS = (
    "cli",
    "decision",
    "linalg",
    "combinatorics",
    "characters",
    "group_algebra",
    "tensor",
    "sampling",
)


class Tracer:
    """Wraps the symten layers of this process and aggregates their spans."""

    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.spans: list[list] = []
        self.dropped_spans = 0
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()  # functions asked for but not found
        self.command = -1
        self._ranked: set = set()
        self._stack: list[list] = []  # [span index or -1, child time]

    def start_command(self, command: int) -> None:
        self.command = command
        self._ranked = set()

    def install(self, package) -> None:
        """Wrap every public function of every submodule of `package`."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}
        for module in modules[1:]:
            layer = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        self.absent |= (set(_BEFORE) | set(_AFTER)) - set(self.names)

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        before, after = _BEFORE.get(name), _AFTER.get(name)
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        calls, total, self_time = self.calls, self.total, self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            parent = stack[-1][0] if stack else -1
            if len(spans) < self.max_spans:
                index = len(spans)
                spans.append([fid, 0.0, 0.0, parent, self.command])
            else:
                index = -1
                self.dropped_spans += 1
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[fid] += 1
                total[fid] += duration
                self_time[fid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    spans[index][1] = start
                    spans[index][2] = end
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return wrapper

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for n, t in zip(self.names, self.self_time) if n.startswith(prefix))

    def stat(self, name: str) -> tuple[int, float]:
        """(calls, inclusive seconds) of one wrapped function; 0 if absent."""
        if name not in self.names:
            self.absent.add(name)
            return 0, 0.0
        fid = self.names.index(name)
        return self.calls[fid], self.total[fid]

    def dump(self, path: str) -> None:
        """Write the spans as tab-separated lines: name, start, end, parent, command."""
        with open(path, "w") as out:
            out.write("name\tstart\tend\tparent\tcommand\n")
            for fid, start, end, parent, command in self.spans:
                out.write(f"{self.names[fid]}\t{start:.9f}\t{end:.9f}\t{parent}\t{command}\n")


def _arg(args, kwargs, position: int, keyword: str):
    return args[position] if len(args) > position else kwargs[keyword]


def _before_rank(tracer, args, kwargs):
    """Count rank calls on a matrix already ranked in the same command."""
    key = tuple(tuple(row) for row in _arg(args, kwargs, 0, "rows"))
    if key in tracer._ranked:
        tracer.counts["linalg.rank_repeats"] += 1
    else:
        tracer._ranked.add(key)


_BEFORE = {"linalg.rank": _before_rank}


def _after_apply(counts, args, kwargs, result):
    x, g = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "g")
    counts["tensor.mult_adds"] += len(g.terms) * len(x.entries)
    counts["tensor.out_nnz"] += len(result.entries)


def _after_projector(counts, args, kwargs, result):
    counts["group_algebra.projector_terms"] += len(result.terms)


def _after_column_systems(counts, args, kwargs, result):
    counts["combinatorics.column_systems_enumerated"] += len(result)


def _after_standard(counts, args, kwargs, result):
    counts["combinatorics.standard_tableaux_enumerated"] += len(result)


# Counts taken from a wrapped function's arguments or result.
_AFTER = {
    "tensor.apply_element": _after_apply,
    "group_algebra.isotypic_projector": _after_projector,
    "combinatorics.enumerate_column_systems": _after_column_systems,
    "combinatorics.enumerate_standard": _after_standard,
}
