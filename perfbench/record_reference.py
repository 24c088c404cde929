"""Record reference.json: the answers for every base problem.

    python3 perfbench/record_reference.py

Runs each workload's command on the unrenamed base problems of its family
and keeps the fields that checks.py compares.  The file is recorded once,
at the commit that defines the benchmark; later commits are checked
against it, so re-recording it hides any change in the answers.
"""

from __future__ import annotations

import json
from pathlib import Path

import checks
from gen import FAMILIES, base_problems
from worker import run_request
from workloads import WORKLOADS, request_flags

OUT = Path(__file__).with_name("reference.json")


def main() -> None:
    reference: dict[str, list[dict]] = {}
    for workload in WORKLOADS.values():
        problems = base_problems(FAMILIES[workload.family])
        entries = reference.setdefault(
            workload.family, [{"text": p.digest()} for p in problems])
        for problem, entry in zip(problems, entries):
            request = {"text": problem.text(), "command": workload.command,
                       "flags": request_flags(workload)}
            doc = run_request(request)
            entry.update(checks.reference_entry(doc))
            if doc["depth"] is not None:
                entry[doc["field"]] = checks.depth_entry(doc)
        print(f"{workload.name}: {len(problems)} base problems")
    OUT.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
