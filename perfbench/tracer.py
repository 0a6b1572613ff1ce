"""Outside-in span tracer for the proxyauction package.

The benchmark wraps the package's public functions from its own code, so the
program under test is unchanged. Each wrapped call records one span: name,
start, end, parent span and op id. Spans stay in memory until the run ends.
Self time is a span's duration minus the durations of its direct children;
because every call nests strictly inside its caller, the self times of all
spans add up to the total time of the root spans (``cli.main``).

Counters are read from the wrapped functions' public return values, after the
span closes. Nothing runs concurrently, so no span ever waits.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

# (span name, module, attribute path). A dotted attribute path names a method.
SPANS = (
    ("cli.main", "proxyauction.cli", "main"),
    ("serialize.load_instance", "proxyauction.serialize", "load_instance"),
    ("serialize.canonical_dumps", "proxyauction.serialize", "canonical_dumps"),
    ("valuations.demand", "proxyauction.valuations", "Valuation.demand"),
    ("lp.build_full_lp", "proxyauction.lp", "build_full_lp"),
    ("lp.solve_exact", "proxyauction.lp", "solve_exact"),
    ("lp.certify_optimal", "proxyauction.lp", "certify_optimal"),
    ("lp.solve_column_generation", "proxyauction.lp", "solve_column_generation"),
    ("simplex.solve_canonical_max", "proxyauction.simplex", "solve_canonical_max"),
    ("mechanism.Pipeline", "proxyauction.mechanism", "Pipeline.__init__"),
    ("mechanism.compute_q", "proxyauction.mechanism", "compute_q"),
    ("mechanism.Pipeline.sample", "proxyauction.mechanism", "Pipeline.sample"),
    ("mechanism.Pipeline.payments", "proxyauction.mechanism", "Pipeline.payments"),
    ("rng.stream", "proxyauction.rng", "stream"),
    ("verify.exact_distribution", "proxyauction.verify", "exact_distribution"),
    ("verify.enumerate_vertex_optimum", "proxyauction.verify", "enumerate_vertex_optimum"),
    ("verify.optimal_integral_welfare", "proxyauction.verify", "optimal_integral_welfare"),
    ("verify.check_proxy_bound", "proxyauction.verify", "check_proxy_bound"),
)

COUNTERS = (
    "simplex.pivots",
    "lp.columns",
    "lp.colgen_rounds",
    "mechanism.q_atoms",
    "mechanism.halts",
    "verify.atoms",
    "serialize.bytes_out",
)

COLGEN = "lp.solve_column_generation"
DEMAND = "valuations.demand"


def _q_atoms(args) -> int:
    """Joint draws compute_q enumerates: product of the other bidders' atoms.

    Computed by the benchmark from compute_q's arguments, mirroring the
    package's enumeration (support bundles plus a positive residual atom).
    """
    solution, bidder = args[0], args[1]
    size = 1
    for i in range(solution.n):
        if i == bidder:
            continue
        options = solution.bundles_of(i)
        residual = 1 - sum(x for _, x in options)
        size *= len(options) + (1 if residual > 0 else 0)
    return size


def _count(tracer: "Tracer", name: str, args, kwargs, result, demands: int) -> None:
    c = tracer.counters
    if name == COLGEN:
        # every round asks each of the n bidders for one demand
        n = (args[0] if args else kwargs["instance"]).n
        c["lp.colgen_rounds"] += demands // n
    elif name == "simplex.solve_canonical_max":
        c["simplex.pivots"] += result.pivots
    elif name == "lp.build_full_lp":
        c["lp.columns"] += len(result.columns)
    elif name == "mechanism.compute_q":
        c["mechanism.q_atoms"] += _q_atoms(args)
    elif name == "mechanism.Pipeline.sample":
        c["mechanism.halts"] += int(result.halted)
    elif name == "verify.exact_distribution":
        c["verify.atoms"] += len(result.atoms)
    elif name == "serialize.canonical_dumps":
        c["serialize.bytes_out"] += len(result.encode("utf-8"))


class Tracer:
    """In-memory span and counter store; installs wrappers around SPANS."""

    def __init__(self):
        # one list per span: [name, start, end, parent index, op id, failed]
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self._stack: list[int] = []
        self._colgen_demands: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            if not stack:  # a root span starts a new op
                tracer.op_id += 1
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id, False]
            spans.append(record)
            stack.append(index)
            if name == COLGEN:
                tracer._colgen_demands.append(0)
            elif name == DEMAND and tracer._colgen_demands:
                tracer._colgen_demands[-1] += 1
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[2] = clock()
                record[5] = True
                stack.pop()
                if name == COLGEN:
                    tracer._colgen_demands.pop()
                raise
            record[2] = clock()
            stack.pop()
            demands = tracer._colgen_demands.pop() if name == COLGEN else 0
            try:
                _count(tracer, name, args, kwargs, result, demands)
            except (AttributeError, KeyError, IndexError, TypeError):
                # a later version changed the value a counter reads: report, never fail
                tracer.uncounted.add(name)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Replace each target with a traced wrapper wherever the package holds it.

        Functions imported by name (``from .lp import solve_exact``) live in
        several module namespaces; each reference to the same object is
        swapped. A target that no longer exists is recorded as absent.
        """
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "proxyauction" or k.startswith("proxyauction.")]
        for name, module_name, attr in SPANS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original)
            self._patch(owner, leaf, wrapped)
            if not path:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._patch(module, key, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- summaries --------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total_s, self_s and errors, over all spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}
               for name, _, _ in SPANS}
        for k, (name, start, end, _, _, failed) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[k]
            row["errors"] += int(failed)
        return out

    def write(self, path: Path) -> None:
        """Spans as gzipped tab-separated lines: index, name, start, end, parent, op, failed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\tfailed\n")
            for k, (name, start, end, parent, op, failed) in enumerate(self.spans):
                fh.write(f"{k}\t{name}\t{start!r}\t{end!r}\t{parent}\t{op}\t{int(failed)}\n")
