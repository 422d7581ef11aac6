"""In-memory span tracer that wraps graphck's public functions from outside.

A span is ``(name, start, end, parent span, request id)``.  Spans stay in
memory until the run ends; self time is a span's duration minus the
durations of its direct children.  Work the tracer does for itself after a
call returns (the Smith-form size counters) runs on a paused clock, so it is
charged to no span.

Deterministic counters (calls, Smith-form sizes) are kept apart from the
timings: they come only from arguments and return values seen at the
wrappers, so two traced passes over the same inputs give identical counters.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (span name, module, attribute path, mode).  A "span" boundary records a
# span per call; a "count" boundary only counts calls, because it is entered
# millions of times from inside other spans and a span each would dwarf it.
BOUNDARIES = (
    ("abelian.smith_normal_form", "abelian", "smith_normal_form", "span"),
    ("abelian.ColumnLattice", "abelian", "ColumnLattice.__init__", "span"),
    ("abelian.ColumnLattice", "abelian", "ColumnLattice.contains", "span"),
    ("abelian.ColumnLattice", "abelian", "ColumnLattice.solve", "span"),
    ("abelian.ColumnLattice", "abelian", "ColumnLattice.equals", "span"),
    ("abelian.kernel_basis", "abelian", "kernel_basis", "span"),
    ("abelian.cokernel", "abelian", "cokernel", "span"),
    ("abelian.GroupHom", "abelian", "GroupHom.__init__", "span"),
    ("abelian.hom_compose", "abelian", "hom_compose", "span"),
    ("abelian.colimit_chain_detailed", "abelian", "colimit_chain_detailed", "span"),
    ("abelian.IntMatrix.mat_vec", "abelian", "IntMatrix.mat_vec", "count"),
    ("abelian.IntMatrix.__matmul__", "abelian", "IntMatrix.__matmul__", "count"),
    ("ktheory.ktheory", "ktheory", "ktheory", "span"),
    ("ktheory.les_check", "ktheory", "les_check", "span"),
    ("ktheory.chain_ktheory_report", "ktheory", "chain_ktheory_report", "span"),
    ("ktheory.inclusion_k0", "ktheory", "inclusion_k0", "span"),
    ("ktheory.relation_matrix", "ktheory", "relation_matrix", "span"),
    ("graphs.check_condition_a", "graphs", "check_condition_a", "span"),
    ("graphs.check_condition_b2", "graphs", "check_condition_b2", "span"),
    ("graphs.GraphChain.layer_graph", "graphs", "GraphChain.layer_graph", "span"),
    ("graphs.load_graph", "graphs", "load_graph", "span"),
    ("synthesis.build_case_i", "synthesis", "build_case_i", "span"),
    ("synthesis.build_case_ii", "synthesis", "build_case_ii", "span"),
    ("synthesis.build_case_iii", "synthesis", "build_case_iii", "span"),
    ("synthesis.synthesize", "synthesis", "synthesize", "span"),
    ("cli.main", "cli", "main", "span"),
    ("lab.straighten", "lab", "straighten", "span"),
    ("lab.lemma36_w", "lab", "lemma36_w", "span"),
    ("lab.straighten_family", "lab", "straighten_family", "span"),
    ("lab.condition_o_residuals", "lab", "condition_o_residuals", "span"),
)

SNF = "abelian.smith_normal_form"


class CoverageError(RuntimeError):
    """A boundary the benchmark expects is missing or was never entered."""


def _max_bits(entries) -> int:
    return max(max(entries), -min(entries)).bit_length() if entries else 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self._paused = 0.0
        self.request_id = 0
        self.counts: Counter = Counter()
        self.snf_sizes = {"entries": 0, "nnz": 0, "max_bits": 0}
        self._restore: list = []

    def _clock(self) -> float:
        return perf_counter() - self._paused

    def _observe_snf(self, m, snf) -> None:
        t0 = perf_counter()
        sizes = self.snf_sizes
        sizes["entries"] += m.rows * m.cols
        sizes["nnz"] += sum(1 for x in m.entries if x)
        bits = max(_max_bits(snf.u.entries), _max_bits(snf.v.entries), _max_bits(snf.v_inv.entries))
        if bits > sizes["max_bits"]:
            sizes["max_bits"] = bits
        self._paused += perf_counter() - t0

    def _span_wrapper(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack = self.spans, self._stack
        observe = self._observe_snf if name == SNF else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.request_id)
            if observe is not None:
                observe(args[0] if args else kwargs["m"], result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package: str = "graphck") -> None:
        """Wrap every boundary and rebind it wherever a graphck module binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for name, modname, path, mode in BOUNDARIES:
            mod = sys.modules.get(f"{package}.{modname}")
            owner, attr = mod, path
            if "." in path:
                clsname, attr = path.split(".")
                owner = getattr(mod, clsname, None)
            if owner is None or attr not in vars(owner):
                raise CoverageError(f"benchmark boundary {package}.{modname}.{path} does not exist")
            orig = vars(owner)[attr]
            make = self._span_wrapper if mode == "span" else self._count_wrapper
            wrapped = make(name, orig)
            targets = [(owner, attr)]
            if owner is mod:
                targets += [(m, k) for m in modules for k, v in vars(m).items() if v is orig and m is not mod]
            for obj, key in targets:
                self._restore.append((obj, key, orig))
                setattr(obj, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()

    def summary(self) -> tuple[dict, dict]:
        """(deterministic counters, self time in seconds) keyed by boundary name."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter(self.counts)
        self_s: dict[str, float] = {}
        for idx, (nid, start, end, _, _) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[idx]
        counters = {f"{name}.calls": calls.get(name, 0) for name in boundary_names()}
        counters.update({f"{SNF}.{k}": v for k, v in self.snf_sizes.items()})
        return counters, {f"{name}.self_s": self_s.get(name, 0.0) for name in boundary_names()}


def boundary_names() -> list[str]:
    seen: dict[str, None] = {}
    for name, *_ in BOUNDARIES:
        seen.setdefault(name)
    return list(seen)
