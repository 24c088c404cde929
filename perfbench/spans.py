"""Span tracing of sqdepth's layers from outside the package.

`Tracer.install` wraps each function in TRACED and rebinds the wrapper in
every sqdepth module that holds the original, under whatever name (reports
imports `homology.depth` as `homology_depth`; `link` and `skeleton` are
also bound in `homology`), and on the class for methods.  A function the
package no longer has is skipped and reports zero calls.  Each call
records a span (name, start, end, parent span, request id) in memory;
`write` dumps them when the run ends and `metrics` reduces them to
per-layer calls, total time and self time, plus the counters in COUNTERS.

`complexes._submasks_of_size` is traced besides the public functions so
that facet materialisation through `combinations` stays apart from the
rest of `skeleton` and from the `has_face` calls of subcomplex validation.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

TRACED = {
    "problems": ("parse_problem_text",),
    "ideals": ("membership_table", "colon"),
    "invariants": ("alpha", "beta", "hdepth_of_alpha", "dim_module_colon", "h_vector"),
    "macaulay": ("chu_vandermonde_check", "cm_admissible"),
    "complexes": ("relative_of_pair", "complex_of_ideal", "relative_facets_of_pair",
                  "skeleton", "_submasks_of_size", "link", "f_vector",
                  "SimplicialComplex.face_masks",
                  "SimplicialComplex.has_face"),
    "homology": ("depth", "is_cohen_macaulay", "is_cm_relative", "reduced_homology",
                 "relative_homology", "rank_fraction_free", "rank_mod_p"),
    "reports": ("build_invariants_document", "build_depth_document",
                "build_verify_document", "ReportBuilder.compute_depth",
                "serialize_document"),
}

SPAN_NAMES = tuple(f"{module}.{name}" for module, names in TRACED.items() for name in names)

COUNTERS = (
    "ideals.membership_table.cells",
    "complexes.skeleton.facets_out",
    "homology.rank.cells_total",
    "homology.rank.cells_max",
    "homology.chain_faces",
    "homology.cache.hits",
    "homology.cache.misses",
    "homology.cache.lookups",
    "homology.cache.hit_ratio",
    "reports.witness_pass.total_s",
)

WITNESS_TESTS = ("homology.is_cohen_macaulay", "homology.is_cm_relative")


class Tracer:
    def __init__(self):
        self.request = -1
        self._name = array("i")
        self._parent = array("q")
        self._request = array("q")
        self._start = array("d")
        self._end = array("d")
        self._nested = array("b")  # a span of the same name is open around it
        self._stack: list[int] = []
        self._open = [0] * len(SPAN_NAMES)
        self._counts = dict.fromkeys(COUNTERS, 0)
        self._seen_results: dict[int, object] = {}  # keeps ids from being reused
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "sqdepth" or k.startswith("sqdepth."))]
        for code, full in enumerate(SPAN_NAMES):
            module_name, _, qualname = full.partition(".")
            owner = sys.modules[f"sqdepth.{module_name}"]
            if "." in qualname:
                cls_name, method = qualname.split(".")
                cls = getattr(owner, cls_name, None)
                original = vars(cls).get(method) if cls is not None else None
                if original is not None:
                    self._rebind(cls, method, self._wrap(code, original))
                continue
            original = getattr(owner, qualname, None)
            if original is None:
                continue
            wrapper = self._wrap(code, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def _rebind(self, target, attr, value) -> None:
        self._restore.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _wrap(self, code: int, fn):
        name = SPAN_NAMES[code]
        after = {
            "ideals.membership_table": self._after_membership_table,
            "complexes.skeleton": self._after_skeleton,
            "homology.rank_fraction_free": self._after_rank,
            "homology.rank_mod_p": self._after_rank,
            "homology.reduced_homology": self._after_homology,
            "homology.relative_homology": self._after_homology,
        }.get(name)
        stack, open_ = self._stack, self._open
        names, parents, requests = self._name, self._parent, self._request
        starts, ends, nested = self._start, self._end, self._nested
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request)
            nested.append(open_[code] > 0)
            ends.append(0.0)
            stack.append(idx)
            open_[code] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_[code] -= 1
                stack.pop()
            if after is not None:
                after(idx, args, result)
            return result

        return traced

    # -- counters -----------------------------------------------------------

    def _after_membership_table(self, idx, args, result) -> None:
        self._counts["ideals.membership_table.cells"] += len(result)

    def _after_skeleton(self, idx, args, result) -> None:
        if self._nested[idx]:
            return  # the components of a relative skeleton are counted with it
        if hasattr(result, "gamma"):
            out = len(result.delta.facets) + len(result.gamma.facets)
        else:
            out = len(result.facets)
        self._counts["complexes.skeleton.facets_out"] += out

    def _after_rank(self, idx, args, result) -> None:
        rows = args[0]
        cells = len(rows) * len(rows[0]) if rows else 0
        self._counts["homology.rank.cells_total"] += cells
        if cells > self._counts["homology.rank.cells_max"]:
            self._counts["homology.rank.cells_max"] = cells

    def _after_homology(self, idx, args, result) -> None:
        # A cache hit returns the very object an earlier miss computed.
        if id(result) in self._seen_results:
            self._counts["homology.cache.hits"] += 1
        else:
            self._seen_results[id(result)] = result
            self._counts["homology.cache.misses"] += 1
            self._counts["homology.chain_faces"] += sum(result.face_counts.values())

    # -- output -------------------------------------------------------------

    def span_count(self) -> int:
        return len(self._start)

    def write(self, path: Path) -> None:
        """All spans as numpy arrays in one .npz file: span i has name
        names[name[i]], start[i] and end[i] in seconds, parent span index
        parent[i] (-1 at top level) and request index request[i]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(SPAN_NAMES), name=np.array(self._name),
                 start=np.array(self._start), end=np.array(self._end),
                 parent=np.array(self._parent), request=np.array(self._request))

    def metrics(self) -> dict[str, float]:
        """Per traced function: calls, total_s (outermost spans only, so a
        recursive call is not counted twice) and self_s (span minus the time
        covered by its child spans); per layer, the summed self time; and
        the counters."""
        names = np.frombuffer(self._name, dtype=np.int32)
        parents = np.frombuffer(self._parent, dtype=np.int64)
        nested = np.frombuffer(self._nested, dtype=np.int8).astype(bool)
        dur = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(self._start, dtype=np.float64)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        k = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names[~nested], weights=dur[~nested], minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        out: dict[str, float] = {}
        layers: dict[str, float] = {}
        for code, full in enumerate(SPAN_NAMES):
            out[f"{full}.calls"] = int(calls[code])
            out[f"{full}.total_s"] = float(total[code])
            out[f"{full}.self_s"] = float(own[code])
            layer = full.partition(".")[0]
            layers[layer] = layers.get(layer, 0.0) + float(own[code])
        for layer, value in layers.items():
            out[f"layer.{layer}.self_s"] = value
        counts = dict(self._counts)
        lookups = counts["homology.cache.hits"] + counts["homology.cache.misses"]
        counts["homology.cache.lookups"] = lookups
        counts["homology.cache.hit_ratio"] = counts["homology.cache.hits"] / lookups if lookups else 0.0
        compute_depth = SPAN_NAMES.index("reports.ReportBuilder.compute_depth")
        witness = np.isin(names, [SPAN_NAMES.index(n) for n in WITNESS_TESTS])
        witness &= has_parent
        witness[has_parent] &= names[parents[has_parent]] == compute_depth
        counts["reports.witness_pass.total_s"] = float(dur[witness].sum())
        out.update(counts)
        return out
