"""One workload pass in a fresh process; run by run.py, not by hand.

Reads the request list as JSON on stdin, sets up as a fresh `sqdepth`
process would, answers every request in a closed loop on one thread,
then checks every output outside the timed region and prints one JSON
result line.  Each request is timed next to a speed.py kernel, run just
before it, whose scale factor goes out with the latency.  With
--setup-only the worker stops once the first request is ready.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sqdepth import homology, ideals, problems, reports  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, golden_text  # noqa: E402


def run_request(request: dict) -> dict:
    """The report for one request, built and serialized as
    `sqdepth <command> FILE --json PATH` builds and serializes it."""
    problem = problems.parse_problem_text(request["text"])
    pair = problem.pair()
    flags = request["flags"]
    field = homology.CoefficientField(flags["field"])
    kwargs = {"label": problem.label, "cap": flags["max_n"]}
    if request["command"] == "verify":
        doc = reports.build_verify_document(pair, field, flags,
                                            skip_depth=flags["skip_depth"], **kwargs)
    elif request["command"] == "depth":
        doc = reports.build_depth_document(pair, field, flags, **kwargs)
    else:
        doc = reports.build_invariants_document(pair, field, flags, **kwargs)
    reports.serialize_document(doc)
    return doc


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None,
                        help="trace the pass and write its spans to this file")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    requests = json.load(sys.stdin)
    for n in sorted({problems.parse_problem_text(r["text"]).n for r in requests}):
        ideals.popcount_table(n)
    homology.clear_homology_cache()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.spans is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    docs: list = []
    latencies = []
    scales = []
    clock = time.perf_counter
    for i, request in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        scales.append(speed.scale(workload.kernel))
        start = clock()
        try:
            doc = run_request(request)
        except Exception as exc:  # counted as a failed request, the pass goes on
            doc = exc
        latencies.append(clock() - start)
        docs.append(doc)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.uninstall()
    failures = _check(workload, requests, docs)
    result = {
        "ready": ready,
        "latencies_s": latencies,
        "scales": scales,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(requests),
        "failures": failures,
    }
    if tracer is not None:
        # Layer times are scaled like the latencies, by the pass's median
        # factor; the spans file keeps the raw clock readings.
        factor = statistics.median(scales)
        result["spans"] = tracer.span_count()
        result["layers"] = {k: v * factor if k.endswith("_s") else v
                            for k, v in tracer.metrics().items()}
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


def _check(workload, requests: list, docs: list) -> list[str]:
    reference = json.loads((Path(__file__).with_name("reference.json")).read_text())
    family = reference[workload.family]
    goldens = {name: golden_text(ROOT, name) for name in workload.corpus}
    failures = []
    for i, (request, doc) in enumerate(zip(requests, docs)):
        if isinstance(doc, Exception):
            problems_found = [f"raised {type(doc).__name__}: {doc}"]
        else:
            ref = family[request["base"]] if request["base"] is not None else None
            problems_found = checks.check_request(request, doc, ref, goldens,
                                                  reports.serialize_document)
        if problems_found:
            name = request["corpus"] or f"base {request['base']}"
            failures.append(f"request {i} ({name}): {'; '.join(problems_found)}")
    return failures


if __name__ == "__main__":
    sys.exit(main())
