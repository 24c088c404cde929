"""The benchmark's workloads: which requests each one sends.

A request is one report built from one problem text, exactly as the CLI
builds it for `sqdepth <command> FILE --field P`: the text is parsed, paired,
turned into a report document and serialized.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from gen import FAMILIES, seeded_requests

DEFAULT_PRIME = 32003  # sqdepth.homology.DEFAULT_PRIME, the program's default prime
MAX_N = 24  # the CLI's default --max-n


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    command: str
    field: int
    skip_depth: bool
    corpus: tuple[str, ...]  # corpus problems appended to the generated ones
    corpus_from_golden: bool  # run corpus problems with their golden's command and flags
    kernel: str  # the speed.py kernel that scales its timings


WORKLOADS = {
    w.name: w for w in (
        Workload("invariants-n20", "invariants", "invariants", 0, False, (), False, "numpy"),
        Workload("verify-skeleton", "skeleton", "verify", 0, True,
                 ("duval-ideal", "duval-quotient", "section3-example"), True, "python"),
        Workload("depth-qq", "depth", "depth", 0, False,
                 ("section3-example", "duval-quotient"), False, "python"),
        Workload("depth-gf", "depth", "depth", DEFAULT_PRIME, False,
                 ("section3-example", "duval-quotient"), False, "python"),
    )
}


def request_flags(workload: Workload) -> dict:
    """The flags the CLI records for the workload's command."""
    return {"field": workload.field, "max_n": MAX_N, "skip_depth": workload.skip_depth}


def build_requests(workload: Workload, seed: int, root: Path) -> list[dict]:
    """The workload's request list for one seed.

    Each request carries its problem text, the command and flags to run it
    with, and what its output is checked against: a base problem index of
    the workload's family, or a corpus name whose golden sits in `root`.
    """
    requests = []
    for problem, text in seeded_requests(FAMILIES[workload.family], seed):
        requests.append({
            "text": text,
            "command": workload.command,
            "flags": request_flags(workload),
            "base": problem.index,
            "corpus": None,
        })
    for name in workload.corpus:
        text = (root / "corpus" / f"{name}.ideal").read_text(encoding="utf-8")
        if workload.corpus_from_golden:
            golden = json.loads(golden_text(root, name))
            command, flags = golden["command"], golden["flags"]
        else:
            command, flags = workload.command, request_flags(workload)
        requests.append({"text": text, "command": command, "flags": flags,
                         "base": None, "corpus": name})
    return requests


def golden_text(root: Path, name: str) -> str:
    return (root / "corpus" / f"{name}.golden.json").read_text(encoding="utf-8")
