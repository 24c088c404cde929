"""Output checks, run on every request after the timed pass.

Generated requests are compared against `reference.json`, recorded once
from the unrenamed base problems.  It keeps only mathematically determined
fields (alpha, beta table and h-vector as one digest; hdepth; dim; depth,
cm and whether a witness exists, per field), never the witness face or the
provenance strings, which may legitimately change.  Corpus requests are
compared against their goldens.
"""

from __future__ import annotations

import hashlib
import json

QQ = "QQ"

# Keys of a report that do not depend on the coefficient field.
FIELD_FREE_KEYS = ("schema", "tool_version", "label", "n", "alpha", "beta_table",
                   "hdepth", "dim", "h_vector")


def tables_digest(doc: dict) -> str:
    tables = [doc["alpha"], doc["beta_table"], doc["h_vector"]]
    return hashlib.sha256(json.dumps(tables, sort_keys=True).encode()).hexdigest()[:16]


def depth_entry(doc: dict) -> dict:
    return {"depth": doc["depth"], "cm": doc["cm"], "witness": doc["cm_witness"] is not None}


def reference_entry(doc: dict) -> dict:
    """The field-free part of a reference entry."""
    return {"hdepth": doc["hdepth"], "dim": doc["dim"], "tables": tables_digest(doc)}


def check_request(request: dict, doc: dict, reference: dict, goldens: dict,
                  serialize) -> list[str]:
    """Every way the report `doc` for `request` is wrong; empty when correct.

    `reference` is the entry of the request's base problem, `goldens` maps
    corpus names to golden texts, `serialize` is the program's serializer.
    """
    problems = []
    depth, hdepth, dim = doc["depth"], doc["hdepth"], doc["dim"]
    if not hdepth <= dim or (depth is not None and not depth <= hdepth):
        problems.append(f"chain depth={depth} <= hdepth={hdepth} <= dim={dim} fails")
    failed_checks = [c["name"] for c in doc["checks"] if c["status"] == "fail"]
    if failed_checks:
        problems.append(f"verify checks failed: {', '.join(failed_checks)}")
    if request["corpus"] is not None:
        problems.extend(_check_corpus(doc, goldens[request["corpus"]], serialize))
    else:
        problems.extend(_check_reference(doc, reference))
    return problems


def _check_reference(doc: dict, ref: dict) -> list[str]:
    problems = []
    got = reference_entry(doc)
    for key, want in ref.items():
        if key in got and got[key] != want:
            problems.append(f"{key}: got {got[key]}, reference {want}")
    if doc["depth"] is not None:
        field = doc["field"]
        got_depth = depth_entry(doc)
        if got_depth != ref[field]:
            problems.append(f"depth over {field}: got {got_depth}, reference {ref[field]}")
        if field != QQ and doc["depth"] > ref[QQ]["depth"]:
            problems.append(f"depth over {field} exceeds depth over QQ ({ref[QQ]['depth']})")
    return problems


def _check_corpus(doc: dict, golden_text: str, serialize) -> list[str]:
    golden = json.loads(golden_text)
    if (doc["command"], doc["flags"]) == (golden["command"], golden["flags"]):
        same = serialize(doc, include_timing=False) == golden_text
        return [] if same else ["report differs from its golden byte for byte"]
    # Run with another command or field than the golden: compare what they share.
    if doc["field"] == golden["field"]:
        keys = [k for k in golden if k not in ("command", "flags", "checks")]
        return [f"{k} differs from the golden" for k in keys if doc.get(k) != golden[k]]
    problems = [f"{k} differs from the golden" for k in FIELD_FREE_KEYS if doc[k] != golden[k]]
    if doc["depth"] > golden["depth"]:
        problems.append(f"depth over {doc['field']} exceeds the golden depth over {golden['field']}")
    return problems
