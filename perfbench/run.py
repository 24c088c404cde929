"""The sqdepth benchmark: exact reports built from problem texts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A run repeats passes over the workload's
request list until S seconds have gone, each pass in a fresh process that
imports `sqdepth` from ./src, loads the texts and answers every request in
a closed loop with one client on one thread, through the calls the CLI
makes: parse_problem_text, ProblemFile.pair, build_*_document and
serialize_document.  Every pass starts from an empty homology cache, as a
fresh `sqdepth` process does, and carries it across its requests, as
`verify --random` does.  Every output is checked after the pass (see
checks.py).  More processes that only set up bring the set-up samples to
MIN_SETUPS.

With --trace 0 the run reports:
  throughput_rps   requests answered per second over one pass
  latency_p50_ms   per-request time, problem text in to serialized JSON out
  latency_p90_ms   the same at the 90th percentile, over the >= 100
                   requests of one pass
  peak_rss_mb      peak RSS of the process that ran the pass, median of passes
  setup_s          interpreter start until the first request is ready
                   (sqdepth imported, texts loaded, popcount tables built),
                   median of the set-ups
Every time is scaled to a reference machine speed (see speed.py), and a
request's time is its median over the run's passes, which all repeat the
same work.  failed_frac (failed / attempted) is printed above the JSON
line, whose `failed` and `attempted` carry the same counts.

With --trace 1 the run alternates untraced and traced passes and reports
per-layer calls, total and self time and counters from the traced ones
(see spans.py), and the tracing overhead: traced minus untraced pass time.
The spans of the last traced pass go to .perfbench/<workload>-seed<seed>.npz.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from gen import FAMILIES, base_problems  # noqa: E402
from workloads import WORKLOADS, build_requests  # noqa: E402

RUN_LIMIT_S = 170  # every run must end within 180 s
MIN_SETUPS = 12
SPAN_DIR = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _check_checkout() -> None:
    for needed in (ROOT / "src" / "sqdepth" / "__init__.py", ROOT / "corpus",
                   HERE / "reference.json"):
        if not needed.exists():
            raise BenchmarkError(f"missing {needed.relative_to(ROOT)}; "
                                 "run from the root of a full sqdepth checkout")


def _check_reference(family: str) -> None:
    """The base problems must be the ones reference.json was recorded from."""
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[family]
    digests = [p.digest() for p in base_problems(FAMILIES[family])]
    if digests != [entry["text"] for entry in reference]:
        raise BenchmarkError(f"the {family} base problems no longer match reference.json")


def _spawn(workload: str, payload: str, deadline: float, extra=()) -> tuple[float, dict]:
    """Run one worker process; returns its scaled set-up time and its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError(f"no time left for another pass within {RUN_LIMIT_S} s")
    factor = speed.scale("python", repeats=3)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, input=payload, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"a pass did not finish within {RUN_LIMIT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return (result["ready"] - started) * factor, result


def _request_latencies(passes: list[dict]) -> list[float]:
    """Each request's scaled latency, median over the passes."""
    scaled = ([t * f for t, f in zip(r["latencies_s"], r["scales"])] for r in passes)
    return [statistics.median(times) for times in zip(*scaled)]


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    _check_checkout()
    _check_reference(workload.family)
    requests = build_requests(workload, seed, ROOT)
    payload = json.dumps(requests)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setups, passes, traced = [], [], []
    while not passes or (trace and not traced) or time.monotonic() - start < seconds:
        extra = ()
        if trace and len(traced) < len(passes):
            extra = ("--spans", str(SPAN_DIR / f"{workload_name}-seed{seed}.npz"))
        setup_s, result = _spawn(workload_name, payload, deadline, extra)
        setups.append(setup_s)
        (traced if extra else passes).append(result)
    while len(setups) < MIN_SETUPS:
        setups.append(_spawn(workload_name, payload, deadline, ("--setup-only",))[0])

    done = passes + traced
    attempted = sum(r["attempted"] for r in done)
    failures = [f for r in done for f in r["failures"]]
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(f"{workload_name} seed {seed}: {len(passes)} untraced and {len(traced)} traced "
          f"passes of {len(requests)} requests; latency percentiles over "
          f"{len(requests)} requests; {len(setups)} set-ups")
    print(f"failed_frac {len(failures) / attempted:.6f} ({len(failures)} of {attempted})")

    if trace:
        metrics = {k: statistics.median_low(r["layers"][k] for r in traced)
                   for k in traced[0]["layers"]}
        traced_wall = sum(_request_latencies(traced))
        untraced_wall = sum(_request_latencies(passes))
        metrics["trace.spans"] = statistics.median_low(r["spans"] for r in traced)
        metrics["trace.traced_wall_s"] = traced_wall
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        units = {k: _layer_unit(k) for k in metrics}
    else:
        latencies = _request_latencies(passes)
        metrics = {
            "throughput_rps": len(latencies) / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1000,
            "latency_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1000,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
