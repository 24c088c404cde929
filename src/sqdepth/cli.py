"""Command-line front-end.

Subcommands: invariants (the cheap alpha/beta pipeline), depth (homology),
verify (everything plus the identity checks), corpus (golden-file diffs).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

from .errors import SqdepthError
from .homology import CoefficientField
from .ideals import DEFAULT_ENUMERATION_CAP
from .problems import parse_problem_file
from .randgen import random_module_pair, random_pair, random_quotient_pair
from .reports import (
    build_depth_document,
    build_invariants_document,
    build_verify_document,
    has_failures,
    serialize_document,
)

_BUILDERS = {
    "invariants": build_invariants_document,
    "depth": build_depth_document,
    "verify": build_verify_document,
}


def _add_common_flags(sub):
    sub.add_argument("--field", type=int, default=0, metavar="P",
                     help="homology coefficients: 0 for the rationals, else a prime")
    sub.add_argument("--max-n", type=int, default=DEFAULT_ENUMERATION_CAP, metavar="N",
                     help="enumeration cap on the variable count (default %(default)s)")
    sub.add_argument("--json", type=Path, default=None, metavar="PATH",
                     help="write the machine-readable report to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqdepth",
        description="Exact Hilbert depth, dimension and depth of squarefree "
                    "monomial quotients J/I.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_inv = subs.add_parser("invariants", help="alpha, beta table, hdepth, dim, h-vector")
    p_inv.add_argument("file", type=Path)
    _add_common_flags(p_inv)

    p_depth = subs.add_parser("depth", help="depth and Cohen-Macaulayness via homology")
    p_depth.add_argument("file", type=Path)
    _add_common_flags(p_depth)

    p_verify = subs.add_parser("verify", help="compute everything and check all identities")
    p_verify.add_argument("file", type=Path, nargs="?")
    _add_common_flags(p_verify)
    p_verify.add_argument("--skip-depth", action="store_true",
                          help="omit homology and the depth-dependent checks")
    p_verify.add_argument("--random", type=int, default=0, metavar="COUNT",
                          help="verify COUNT seeded random instances instead of a file")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for --random")

    p_corpus = subs.add_parser("corpus", help="diff every problem file against its golden")
    p_corpus.add_argument("directory", type=Path)
    return parser


def _field_from_flag(value: int) -> CoefficientField:
    try:
        return CoefficientField(value)
    except ValueError as exc:
        raise SqdepthError(f"--field {value}: {exc}") from None


def _flags_dict(args, skip_depth: bool = False) -> dict:
    return {"field": args.field, "max_n": args.max_n, "skip_depth": skip_depth}


def _build_document(command: str, pair, field, flags: dict, label) -> dict:
    """The report of one command, with the cap and skip_depth read from its
    flags; the CLI and the golden comparison build every report here."""
    kwargs = {"cap": flags.get("max_n", DEFAULT_ENUMERATION_CAP), "label": label}
    if command == "verify":
        kwargs["skip_depth"] = flags.get("skip_depth", False)
    return _BUILDERS[command](pair, field, flags, **kwargs)


def _print_report(doc: dict) -> None:
    if doc["label"]:
        print(f"label: {doc['label']}")
    print(f"n: {doc['n']}  field: {doc['field']}")
    print("alpha:", " ".join(doc["alpha"]))
    print(f"hdepth: {doc['hdepth']}")
    print(f"dim: {doc['dim']}")
    print("h-vector:", " ".join(doc["h_vector"]))
    print("beta table:")
    for row in doc["beta_table"]:
        line = f"  q={row['q']}: " + " ".join(row["values"])
        if row["first_negative_k"] is not None:
            line += f"   (first negative at k={row['first_negative_k']})"
        print(line)
    if doc["depth"] is not None:
        print(f"depth: {doc['depth']}  ({doc['field']})")
        print(f"cohen-macaulay: {doc['cm']}")
        if doc["cm_witness"]:
            w = doc["cm_witness"]
            size = w["face"].count(",") + 1 if w["face"] != "{}" else 0
            print(f"  depth witness: face {w['face']}, homology dimension {w['dimension']}"
                  f" (depth = {size} + 1 + {w['dimension']})")
    for note in doc["notes"]:
        print(f"note: {note}")
    for check in doc["checks"]:
        print(f"[{check['status']}] {check['name']}: {check['details']}")


def _write_json(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SqdepthError(f"cannot write {path}: {exc.strerror}") from None


def _emit(doc: dict, json_path) -> None:
    if json_path is not None:
        _write_json(json_path, serialize_document(doc))
    _print_report(doc)


def _run_file_command(args) -> int:
    problem = parse_problem_file(args.file)
    pair = problem.pair()
    field = _field_from_flag(args.field)
    flags = _flags_dict(args, getattr(args, "skip_depth", False))
    doc = _build_document(args.command, pair, field, flags, problem.label)
    _emit(doc, args.json)
    if has_failures(doc):
        print("verification FAILED", file=sys.stderr)
        return 1
    return 0


def _run_random_sweep(args) -> int:
    rng = random.Random(args.seed)
    field = _field_from_flag(args.field)
    flags = _flags_dict(args, args.skip_depth)
    generators = (random_quotient_pair, random_module_pair, random_pair)
    documents = []
    failed = 0
    for i in range(args.random):
        n = rng.randint(2, 6)
        pair = generators[i % len(generators)](rng, n)
        doc = _build_document("verify", pair, field, flags,
                              f"random seed={args.seed} index={i}")
        documents.append(doc)
        bad = has_failures(doc)
        failed += bad
        status = "FAIL" if bad else "ok"
        print(f"[{i}] n={n} I=({pair.lower}) J=({pair.upper}) "
              f"hdepth={doc['hdepth']} dim={doc['dim']} depth={doc['depth']} {status}")
        if bad:
            for check in doc["checks"]:
                if check["status"] == "fail":
                    print(f"    [fail] {check['name']}: {check['details']}")
    print(f"{args.random - failed} of {args.random} random instances verified")
    if args.json is not None:
        payload = {"seed": args.seed, "count": args.random, "instances": documents}
        _write_json(args.json, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 1 if failed else 0


def _run_corpus(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise SqdepthError(f"not a directory: {directory}")
    problems = sorted(directory.glob("*.ideal"))
    if not problems:
        raise SqdepthError(f"no .ideal files in {directory}")  # would pass vacuously
    passed = failures = 0
    for path in problems:
        golden_path = path.with_name(path.stem + ".golden.json")
        outcome = _diff_against_golden(path, golden_path)
        if outcome is None:
            passed += 1
            print(f"PASS {path.name}")
        else:
            failures += 1
            print(f"FAIL {path.name}: {outcome}")
    print(f"{passed} passed, {failures} failed, {len(problems)} total")
    return 1 if failures else 0


# The exact type of each golden flag that is present: bool is an int
# subclass, so `type(...) is` rather than isinstance keeps it out of
# field and max_n.
_FLAG_TYPES = {"field": int, "max_n": int, "skip_depth": bool}


def _diff_against_golden(problem_path: Path, golden_path: Path):
    """None on a byte-identical match, else a short description."""
    if not golden_path.exists():
        return f"missing golden {golden_path.name}"
    try:
        golden_text = golden_path.read_text(encoding="utf-8")
        golden = json.loads(golden_text)
        command = golden["command"]
        flags = golden["flags"]
        if command not in _BUILDERS or not isinstance(flags, dict):
            raise TypeError(command)
        for key, wanted in _FLAG_TYPES.items():
            if key in flags and type(flags[key]) is not wanted:
                raise TypeError(key)
    except (OSError, ValueError, KeyError, TypeError):
        return "golden is not a readable report document"
    try:
        problem = parse_problem_file(problem_path)
        field = _field_from_flag(flags.get("field", 0))
        doc = _build_document(command, problem.pair(), field, flags, problem.label)
    except SqdepthError as exc:
        return f"cannot recompute report: {exc}"
    produced = serialize_document(doc, include_timing=False)
    if produced != golden_text:
        return "report differs from golden"
    return None


def _run(args) -> int:
    if args.command == "corpus":
        return _run_corpus(args)
    if args.max_n < 1:
        raise SqdepthError(f"--max-n {args.max_n}: N must be at least 1")
    if args.command == "verify":
        if args.random < 0:
            raise SqdepthError(f"--random {args.random}: COUNT cannot be negative")
        if args.random and args.file is not None:
            raise SqdepthError(f"verify takes a problem file or --random COUNT, not both "
                               f"(file {args.file}, --random {args.random})")
        if args.random:
            return _run_random_sweep(args)
        if args.file is None:
            raise SqdepthError("verify needs a problem file or --random COUNT")
    return _run_file_command(args)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = _run(args)
        sys.stdout.flush()  # a buffered report meets a closed pipe here
        return status
    except SqdepthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); the rest of the report
        # goes to the null device, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
