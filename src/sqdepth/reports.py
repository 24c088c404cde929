"""Report documents and the verification checks behind `verify`.

Documents are plain dicts with a fixed key set, serialized as sorted-key
JSON so identical inputs produce byte-identical output.  Entries of alpha,
beta and h vectors are rendered as decimal strings, since they can outgrow
64-bit integers for large n; structural integers stay JSON numbers.
"""

from __future__ import annotations

import time
from functools import cache, cached_property, lru_cache
from json.encoder import encode_basestring_ascii as _quote
from math import comb
from typing import Optional

from . import __version__
from .complexes import complex_of_colon, f_vector, relative_of_pair
from .errors import CapExceededError
from .homology import CoefficientField, depth_verdict
from .ideals import DEFAULT_ENUMERATION_CAP, IdealPair, face_vertices
from .invariants import (
    AlphaVector,
    _first_negative,
    _hdepth_of_rows,
    _transform_rows,
    alpha,
    first_recurrence_failure,
    hdepth_of_alpha,
)
from .macaulay import chu_vandermonde_check, cm_admissible

SCHEMA = "sqdepth-report/v1"

RELATIVE_CM_NOTE = (
    "relative Cohen-Macaulayness is tested by link-pair relative homology; "
    "the criterion is adopted from the relative Stanley-Reisner literature"
)


def _strings(values) -> list[str]:
    return list(map(str, values))


def _face_label(mask: int) -> str:
    return "{" + ",".join(str(v.bit_length()) for v in face_vertices(mask)) + "}"


def _check(name: str, status: str, details: str) -> dict:
    return {"name": name, "status": status, "details": details}


def _passfail(ok: bool) -> str:
    return "pass" if ok else "fail"


class ReportBuilder:
    """Shared computation for the three report commands.  The enumeration
    cap is checked here, before any subset table is built.

    One pass of Pascal rows at levels 0..dim serves the beta table, the
    hdepth scan (which starts at dim) and the h-vector (row dim), and the
    skeleton and cm-h checks read the same rows: ``beta_values[q]`` is the
    tuple beta^q, with no per-level object.
    """

    def __init__(self, pair: IdealPair, field: CoefficientField,
                 cap: int = DEFAULT_ENUMERATION_CAP, label: Optional[str] = None):
        if pair.n > cap:
            raise CapExceededError(
                f"n={pair.n} exceeds the enumeration cap {cap}; raise it explicitly if intended"
            )
        self.pair = pair
        self.field = field
        self.label = label
        self.alpha = alpha(pair)
        self.dim = self.alpha.max_degree
        self.beta_values = _transform_rows(self.alpha.counts, self.dim)
        self.hdepth = _hdepth_of_rows(self.beta_values, self.alpha.min_degree)
        self.is_quotient = pair.upper.is_unit
        self.depth: Optional[int] = None
        self.cm: Optional[bool] = None
        self.cm_witness = None

    @cached_property
    def psi(self):  # the relative complex, built once for depth and the verify checks
        return relative_of_pair(self.pair)

    def compute_depth(self) -> None:
        verdict = depth_verdict(self.psi, self.field)
        self.depth = verdict.depth
        self.cm = verdict.is_cm
        if verdict.witness_face is not None:
            self.cm_witness = {
                "face": _face_label(verdict.witness_face),
                "dimension": verdict.witness_dim,
            }

    def beta_rows(self) -> list[dict]:
        bottom = self.alpha.min_degree
        return [
            {"q": q, "values": _strings(row), "first_negative_k": _first_negative(row)}
            for q, row in enumerate(self.beta_values[bottom:], bottom)
        ]

    def document(self, command: str, flags: dict) -> dict:
        beta_rows = self.beta_rows()  # its last row is level dim, the h-vector
        notes = []
        if self.depth is not None and not self.is_quotient:
            notes.append(RELATIVE_CM_NOTE)
        provenance = {
            "alpha": "subset enumeration over all masks",
            "beta_table": "signed binomial transform of alpha",
            "hdepth": "downward scan from the alpha degree bound",
            "dim": "max degree with alpha positive",
            "h_vector": "beta at level dim",
            "depth": None if self.depth is None
            else f"Hochster's formula over link pairs over {self.field.label()}",
            "cm": None if self.cm is None else "depth equals dim",
        }
        return {
            "schema": SCHEMA,
            "tool_version": __version__,
            "command": command,
            "label": self.label,
            "n": self.pair.n,
            "field": self.field.label(),
            "flags": flags,
            "alpha": _strings(self.alpha.counts),
            "beta_table": beta_rows,
            "hdepth": self.hdepth,
            "dim": self.dim,
            "depth": self.depth,
            "h_vector": list(beta_rows[-1]["values"]),
            "cm": self.cm,
            "cm_witness": self.cm_witness,
            "notes": notes,
            "provenance": provenance,
            "checks": [],
        }


def build_invariants_document(pair, field, flags, label=None, cap=DEFAULT_ENUMERATION_CAP):
    return _timed_document("invariants", pair, field, flags, label, cap, with_depth=False)


def build_depth_document(pair, field, flags, label=None, cap=DEFAULT_ENUMERATION_CAP):
    return _timed_document("depth", pair, field, flags, label, cap, with_depth=True)


def build_verify_document(pair, field, flags, label=None, skip_depth=False,
                          cap=DEFAULT_ENUMERATION_CAP):
    """Run every applicable identity and inequality and record a verdict each.

    Every asserted relation is a proved statement, so a failure indicates an
    implementation bug, never a property of the input.
    """
    return _timed_document("verify", pair, field, flags, label, cap, with_depth=not skip_depth)


def _timed_document(command, pair, field, flags, label, cap, with_depth: bool) -> dict:
    # The body of the three builders: the report of `command`, with depth
    # when asked, the checks for verify, and its wall time in timing_ms.
    start = time.perf_counter()
    builder = ReportBuilder(pair, field, cap=cap, label=label)
    if with_depth:
        builder.compute_depth()
    doc = builder.document(command, flags)
    if command == "verify":
        doc["checks"] = _run_checks(builder)
    doc["timing_ms"] = int((time.perf_counter() - start) * 1000)
    return doc


def _run_checks(b: ReportBuilder) -> list[dict]:
    checks = []
    n = b.pair.n
    a = b.alpha

    lo, hi = a.min_degree, a.max_degree
    checks.append(_check(
        "hdepth-degree-bounds", _passfail(lo <= b.hdepth <= hi),
        f"{lo} <= hdepth={b.hdepth} <= {hi}",
    ))

    checks.append(_check(
        "hdepth-le-dim", _passfail(b.hdepth <= b.dim),
        f"hdepth={b.hdepth} <= dim={b.dim}",
    ))

    # (I : J) is proper for a valid pair, so its complex is nonvoid
    colon_complex = complex_of_colon(b.pair.lower, b.pair.upper)
    colon_dim = colon_complex.dim + 1
    checks.append(_check(
        "dim-colon-agreement", _passfail(colon_dim == b.dim),
        f"alpha path {b.dim}, colon path {colon_dim}",
    ))

    psi_facets = b.psi.facets  # from Delta(I) and Delta(J)
    colon_facets = colon_complex.facets
    checks.append(_check(
        "facet-colon-agreement", _passfail(psi_facets == colon_facets),
        f"{len(psi_facets)} facets on both sides" if psi_facets == colon_facets
        else "facet sets differ",
    ))

    failure = first_recurrence_failure(a)
    checks.append(_check(
        "transform-recurrences", _passfail(failure is None),
        "levels 1..n verified" if failure is None
        else "identity {} fails at k={} (d={})".format(*failure),
    ))

    checks.append(_check(
        "chu-vandermonde", _passfail(_chu_vandermonde_holds(n)),
        f"all 0 <= k <= d <= {n} at n={n}",
    ))

    checks.append(_skeleton_h_check(b))

    checks.extend(_depth_checks(b))
    return checks


@cache
def _chu_vandermonde_holds(n: int) -> bool:
    # Depends on n alone, and n <= MAX_VARIABLES bounds the cache.
    return all(chu_vandermonde_check(n, d, k) for d in range(n + 1) for k in range(d + 1))


def _skeleton_h_check(b: ReportBuilder) -> dict:
    # The (d'-1)-skeleton is the face table of psi masked by popcount <= d',
    # so its face counts are the first d'+1 entries of the f-vector of psi,
    # and its h-vector at level d' is row d' of the f-vector's transform:
    # one table and one pass of rows serve every level.
    faces = f_vector(b.psi)
    h_rows = _transform_rows(faces, b.dim)
    for dprime in range(0, b.dim + 1):
        expected = b.beta_values[dprime]
        got = h_rows[dprime]
        if expected != got:
            return _check(
                "skeleton-h-vector", "fail",
                f"level {dprime}: transform {expected} vs skeleton h-vector {got}",
            )
    return _check("skeleton-h-vector", "pass", f"levels 0..{b.dim} agree")


def _depth_checks(b: ReportBuilder) -> list[dict]:
    checks = []
    n = b.pair.n
    if b.depth is None:
        skipped = "depth skipped"
        checks.append(_check("depth-le-hdepth", "skipped", skipped))
        checks.append(_check("quotient-depth-chain", "skipped", skipped))
        checks.append(_check("cm-equalities", "skipped", skipped))
        checks.append(_check("cm-quotient-hdepth-gap", "skipped", skipped))
        checks.append(_check("cm-h-bounds", "skipped", skipped))
        return checks

    checks.append(_check(
        "depth-le-hdepth", _passfail(b.depth <= b.hdepth),
        f"depth={b.depth} <= hdepth={b.hdepth}",
    ))

    if b.is_quotient and not b.pair.lower.is_zero:
        ok = b.depth <= b.hdepth <= b.dim <= n - 1
        checks.append(_check(
            "quotient-depth-chain", _passfail(ok),
            f"depth={b.depth} <= hdepth={b.hdepth} <= dim={b.dim} <= {n - 1}",
        ))
    else:
        checks.append(_check("quotient-depth-chain", "skipped", "applies to proper quotients S/I"))

    if b.cm:
        checks.append(_check(
            "cm-equalities", _passfail(b.hdepth == b.dim == b.depth),
            f"hdepth={b.hdepth}, dim={b.dim}, depth={b.depth}",
        ))
    else:
        checks.append(_check("cm-equalities", "skipped", "module is not Cohen-Macaulay"))

    if b.is_quotient and not b.pair.lower.is_zero and b.cm:
        companion = tuple(comb(n, j) - c for j, c in enumerate(b.alpha.counts))
        module_hdepth = hdepth_of_alpha(AlphaVector(n, companion))
        ok = b.hdepth == b.dim == b.depth and module_hdepth >= b.hdepth + 1
        checks.append(_check(
            "cm-quotient-hdepth-gap", _passfail(ok),
            f"hdepth(S/I)={b.hdepth}=dim=depth and hdepth(I)={module_hdepth} >= {b.hdepth + 1}",
        ))
        h = b.beta_values[b.dim]
        admissible, violation = cm_admissible(h, n, b.dim)
        checks.append(_check(
            "cm-h-bounds", _passfail(admissible),
            "h-vector satisfies both Cohen-Macaulay growth bounds" if admissible
            else f"condition {violation[0]} fails at k={violation[1]}",
        ))
    else:
        reason = ("applies to Cohen-Macaulay proper quotients S/I")
        checks.append(_check("cm-quotient-hdepth-gap", "skipped", reason))
        checks.append(_check("cm-h-bounds", "skipped", reason))
    return checks


def has_failures(doc: dict) -> bool:
    return any(c["status"] == "fail" for c in doc.get("checks", []))


def serialize_document(doc: dict, include_timing: bool = True) -> str:
    """The document as JSON, byte-identical to
    `json.dumps(doc, sort_keys=True, indent=2) + "\\n"`.

    The stdlib writes indented JSON through its pure-Python encoder; this
    one covers only the types documents hold (dicts with str keys, lists,
    str, int, bool, None) and skips most per-value calls:
    - A list that starts with a str is joined whole, and the join is
      quoted once: if that only added the two quotes, no item needs an
      escape and the list is written with one more join.  Otherwise each
      item is quoted.  A list that mixes in other types is written item by
      item.
    - A dict takes its sorted keys and their quoted "key": prefixes from a
      small cache keyed by its key tuple, and writes str, int and None
      values inline.
    Strings, str subclasses included, are quoted by the stdlib's own ASCII
    escaper.  Any other type is a TypeError.
    """
    if not include_timing:
        doc = {key: value for key, value in doc.items() if key != "timing_ms"}
    return _encode(doc, "\n") + "\n"


@lru_cache(maxsize=64)
def _key_prefixes(keys: tuple) -> tuple[tuple[str, str], ...]:
    # _quote raises the TypeError for a key that is not a str
    return tuple((key, _quote(key) + ": ") for key in sorted(keys))


def _encode(value, newline: str) -> str:
    # `newline` is a line break plus the indent of the enclosing line.
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return str(value)
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        if type(value[0]) is str:
            try:
                joined = "".join(value)
            except TypeError:  # a later item is not a str
                pass
            else:
                if len(_quote(joined)) == len(joined) + 2:  # no item needs an escape
                    return "[" + inner + '"' + ('",' + inner + '"').join(value) + '"' + newline + "]"
                return "[" + inner + ("," + inner).join(map(_quote, value)) + newline + "]"
        items = [_encode(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key, prefix in _key_prefixes(tuple(value)):
            v = value[key]
            v_kind = type(v)
            if v_kind is str:
                items.append(prefix + _quote(v))
            elif v_kind is int:
                items.append(prefix + str(v))
            elif v is None:
                items.append(prefix + "null")
            else:
                items.append(prefix + _encode(v, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):  # as the stdlib does, a str subclass is a string
        return _quote(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
