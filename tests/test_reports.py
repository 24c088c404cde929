"""The report serializer against the stdlib's indented JSON, and the
report's shared Pascal pass against the transform oracles."""

import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqdepth.cli import main
from sqdepth.homology import RATIONALS, CoefficientField
from sqdepth.invariants import beta_table, hdepth_of_alpha
from sqdepth.randgen import random_module_pair, random_pair, random_quotient_pair
from sqdepth.reports import (
    ReportBuilder,
    build_depth_document,
    build_invariants_document,
    build_verify_document,
    serialize_document,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GENERATORS = (random_quotient_pair, random_module_pair, random_pair)
FIELDS = (RATIONALS, CoefficientField(2), CoefficientField(32003))


def stdlib(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def seeded_pairs(seed: int, count: int, max_n: int = 7):
    rng = random.Random(seed)
    for i in range(count):
        yield GENERATORS[i % len(GENERATORS)](rng, rng.randint(2, max_n))


def sweep_documents():
    """Invariants, depth and verify documents (verify with and without
    depth) of a seeded sweep, over QQ and two prime fields."""
    for i, pair in enumerate(seeded_pairs(5, 45)):
        field = FIELDS[i % len(FIELDS)]
        flags = {"field": field.characteristic, "max_n": 24, "skip_depth": False}
        label = f"sweep {i}"
        yield build_invariants_document(pair, field, flags, label=label)
        yield build_depth_document(pair, field, flags, label=label)
        yield build_verify_document(pair, field, flags, label=label)
        yield build_verify_document(pair, field, {**flags, "skip_depth": True},
                                    label=label, skip_depth=True)


class TestSerializerMatchesStdlib:
    @pytest.mark.parametrize("golden", sorted(CORPUS.glob("*.golden.json")),
                             ids=lambda p: p.name)
    def test_corpus_golden(self, golden):
        text = golden.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert serialize_document(doc) == stdlib(doc) == text

    def test_seeded_sweep_documents(self):
        docs = list(sweep_documents())
        assert {d["command"] for d in docs} == {"invariants", "depth", "verify"}
        assert {d["field"] for d in docs} == {f.label() for f in FIELDS}
        for doc in docs:
            assert serialize_document(doc) == stdlib(doc)
            untimed = {k: v for k, v in doc.items() if k != "timing_ms"}
            assert serialize_document(doc, include_timing=False) == stdlib(untimed)
            assert "timing_ms" in doc  # the untimed text leaves the document alone

    @pytest.mark.parametrize("label", [
        'a "quoted" label',
        "back\\slash",
        "two\nlines",
        "tab\there",
        "bell\x07 and nul\x00 and \x1f",
        "café – β-table",
        "astral \U0001d400 \U0001f600",
        "",
    ])
    def test_free_text_labels(self, label):
        pair = next(seeded_pairs(1, 1))
        doc = build_invariants_document(pair, RATIONALS, {"field": 0}, label=label)
        assert serialize_document(doc) == stdlib(doc)
        assert json.loads(serialize_document(doc))["label"] == label

    @pytest.mark.parametrize("doc", [
        {},
        {"empty list": [], "empty dict": {}, "nested": [[], {}, [[]], {"a": {}}]},
        {"big": 2 ** 64 + 1, "huge": -(3 ** 200), "neg": -1, "zero": 0},
        {"none": None, "true": True, "false": False, "flags": [True, False, None]},
        {"mixed": ["a", 1, None, ["b"], {"c": "d"}], "strings": ["x", "é", "\n"]},
        {"z": 1, "a": 2, "é": 3, "A": 4, "": 5, "\U0001f600": 6},
    ], ids=["empty", "empty-containers", "ints", "constants", "mixed", "key-order"])
    def test_crafted_documents(self, doc):
        assert serialize_document(doc) == stdlib(doc)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=20,
    ))
    def test_json_values(self, value):
        assert serialize_document({"value": value}) == stdlib({"value": value})

    @pytest.mark.parametrize("items", [
        ["a", "b", "c\n"],
        ["a", "b", 'q"'],
        ["a", "b\\"],
        ["plain", "café"],
        ["plain", "astral \U0001d400", "\U0001f600"],
        ["", "a", ""],
        [""],
        ["12", "-3", "0"],
        ["a", 1],
        ["a", None],
        ["a", True, False],
        ["a", ["b", "c"]],
        ["a", {"b": "c"}],
        ["a", [], {}],
        ["é", -(2 ** 70)],
    ], ids=["escape-in-last", "quote-in-last", "backslash-in-last", "non-ascii",
            "astral", "empty-strings", "one-empty-string", "digits", "then-int",
            "then-none", "then-bools", "then-list", "then-dict", "then-empties",
            "escaped-then-int"])
    def test_lists_headed_by_a_string(self, items):
        doc = {"items": items, "nested": {"deeper": [items, items]}}
        assert serialize_document(doc) == stdlib(doc)

    def test_dicts_sharing_a_key_tuple(self):
        # the sorted keys and prefixes come from a cache keyed by the key tuple
        docs = [{"b": 1, "a": "x"}, {"b": None, "a": [1]}, {"a": {"b": "c"}, "b": "é"},
                {"b": {"b": 2, "a": 3}, "a": {"a": 4, "b": 5}}]
        for doc in docs * 2:
            assert serialize_document(doc) == stdlib(doc)

    def test_str_subclasses_encode_as_strings(self):
        class Label(str):
            pass

        for value in (Label("a"), [Label("a"), "b"], ["a", Label("b\n")],
                      [Label("é"), 1], {"k": Label("v")}, {Label("k"): ["v", Label("w")]}):
            doc = {"value": value}
            assert serialize_document(doc) == stdlib(doc)

    @pytest.mark.parametrize("bad", [
        {"x": 1.5},
        {"x": (1, 2)},
        {"x": np.int64(3)},
        {1: "a"},
        {"x": [{"y": [0.0]}]},
        {"x": {"y": {2: None}}},
        {"x": ["a", b"bytes"]},
        {"x": ["a", "b", 1.5]},
        {"x": ["a", ("b",)]},
    ], ids=["float", "tuple", "numpy-int", "int-key", "nested-float",
            "nested-int-key", "bytes-in-list", "float-after-strings",
            "tuple-after-string"])
    def test_other_types_raise(self, bad):
        with pytest.raises(TypeError):
            serialize_document(bad)


class TestSweepFile:
    def test_random_sweep_json_is_the_stdlib_indentation(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        assert main(["verify", "--random", "12", "--seed", "11", "--json", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        payload = json.loads(text)
        assert payload["count"] == 12 and len(payload["instances"]) == 12
        assert text == stdlib(payload)


class TestSharedPascalPass:
    def test_builder_reads_the_oracles_off_one_pass(self):
        for pair in seeded_pairs(7, 60, max_n=9):
            b = ReportBuilder(pair, RATIONALS)
            assert b.hdepth == hdepth_of_alpha(b.alpha)
            table = beta_table(b.alpha, 0, b.dim)
            assert list(enumerate(b.beta_values)) == [(bv.level, bv.values) for bv in table]
            doc = b.document("invariants", {})
            assert [row["first_negative_k"] for row in doc["beta_table"]] == [
                bv.first_negative() for bv in table[b.alpha.min_degree:]]
            dim_row = [str(v) for v in beta_table(b.alpha, b.dim, b.dim)[0].values]
            assert doc["h_vector"] == dim_row == doc["beta_table"][-1]["values"]
            assert doc["h_vector"] is not doc["beta_table"][-1]["values"]
