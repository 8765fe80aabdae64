"""Fixture generator tests: reproducibility, ground truth, round trips."""

from __future__ import annotations

import filecmp

import pytest

from uitaint.errors import InvalidSpec
from uitaint.fixtures import (
    FixtureSpec,
    GroundTruth,
    PlantedLeak,
    detected_tuples,
    generate,
    load_ground_truth,
    save_ground_truth,
)
from uitaint.pi import PiKind
from uitaint.pipeline import analyze_bundle
from uitaint.sources_sinks import DestCategory


def _tree_identical(a, b):
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.diff_files or cmp.funny_files:
        return False
    return all(_tree_identical(a / sub, b / sub) for sub in cmp.common_dirs)


# ---------------------------------------------------------------------------
# spec validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"seed": -1},
        {"seed": 2**64},
        {"seed": 3, "n_sources": -1},
        {"seed": 3, "n_decoys": -2},
        {"seed": 3, "party_mix": -0.1},
        {"seed": 3, "party_mix": 1.5},
        {"seed": 3, "chain_len": (0, 3)},
        {"seed": 3, "chain_len": (4, 2)},
        {"seed": 3, "pi_mix": {"emmail": 1.0}},
        {"seed": 3, "pi_mix": {"email": -1.0}},
        {"seed": 3, "pi_mix": {"email": 0.0}},
        {"seed": 3, "destination_mix": {"cloud": 1.0}},
        {"seed": 3, "destination_mix": {"net": 0.0, "log": 0.0}},
        # wrong types, as a JSON spec file can give them
        {"seed": True},
        {"seed": 3, "n_sources": 2.0},
        {"seed": 3, "n_decoys": "1"},
        {"seed": 3, "party_mix": True},
        {"seed": 3, "chain_len": (1, 2.5)},
        {"seed": 3, "pi_mix": 5},
        {"seed": 3, "pi_mix": {"email": "x"}},
        {"seed": 3, "destination_mix": {"net": float("nan"), "log": 1.0}},
        {"seed": 3, "destination_mix": {"net": float("inf")}},
        {"seed": 3, "pi_mix": {"email": 1e308, "phone": 1e308}},
        {"seed": 3, "destination_mix": {"net": 1.7e308, "log": 1.7e308}},
        {"seed": 3, "pi_mix": {"email": 10**400}},
    ],
)
def test_bad_specs_rejected(kwargs):
    with pytest.raises(InvalidSpec):
        FixtureSpec(**kwargs)


def test_huge_weights_with_a_finite_sum_generate(tmp_path):
    spec = FixtureSpec(seed=3, n_sources=4, pi_mix={"email": 8e307, "phone": 8e307},
                       destination_mix={"net": 8.9e307, "log": 8.9e307})
    _, gt = generate(spec, tmp_path / "b")
    assert {lk.pi.value for lk in gt.leaks} <= {"email", "phone"}
    assert {lk.category.value for lk in gt.leaks} <= {"net", "log"}


def test_from_dict_round_trip():
    spec = FixtureSpec.from_dict(
        {"seed": 12, "n_sources": 2, "party_mix": 1.0, "chain_len": [2, 2]}
    )
    assert spec.seed == 12
    assert spec.n_sources == 2
    assert spec.chain_len == (2, 2)


@pytest.mark.parametrize(
    "doc",
    [
        {},                                   # seed required
        {"seed": 1, "flavor": "spicy"},       # unknown field
        {"seed": 1, "chain_len": [1, 2, 3]},  # not a pair
    ],
)
def test_from_dict_rejects_malformed(doc):
    with pytest.raises(InvalidSpec):
        FixtureSpec.from_dict(doc)


# ---------------------------------------------------------------------------
# generation


def test_same_seed_same_bytes(tmp_path):
    spec = FixtureSpec(seed=99, n_sources=4, n_decoys=4)
    dir_a, truth_a = generate(spec, tmp_path / "a")
    dir_b, truth_b = generate(spec, tmp_path / "b")
    assert truth_a.tuples() == truth_b.tuples()
    assert _tree_identical(dir_a, dir_b)


def test_different_seeds_differ(tmp_path):
    _, truth_a = generate(FixtureSpec(seed=1, n_sources=6), tmp_path / "a")
    _, truth_b = generate(FixtureSpec(seed=2, n_sources=6), tmp_path / "b")
    assert truth_a.tuples() != truth_b.tuples()


def test_bundle_layout_on_disk(tmp_path):
    bundle, truth = generate(FixtureSpec(seed=5, n_sources=3), tmp_path)
    assert (bundle / "manifest.xml").is_file()
    assert (bundle / "res" / "rtable.txt").is_file()
    assert (bundle / "res" / "layout" / "main.xml").is_file()
    assert (bundle / "ground_truth.tsv").is_file()
    assert len(list((bundle / "code").glob("*.jtac"))) >= 3
    assert len(truth.leaks) == 3


def test_ground_truth_file_round_trips(tmp_path):
    truth = GroundTruth(
        leaks=(
            PlantedLeak(PiKind.EMAIL, "first", DestCategory.NET, "emailInput0",
                        "<java.io.OutputStream: void write(byte[])>"),
            PlantedLeak(PiKind.GENDER, "third", DestCategory.LOG, "genderInput1",
                        "<android.util.Log: int d(java.lang.String,java.lang.String)>"),
        )
    )
    path = tmp_path / "gt.tsv"
    save_ground_truth(truth, path)
    assert load_ground_truth(path).tuples() == truth.tuples()


def test_detector_recovers_planted_leaks(tmp_path):
    for seed in (7, 21, 1234):
        spec = FixtureSpec(seed=seed, n_sources=6, n_decoys=5)
        bundle, truth = generate(spec, tmp_path / str(seed))
        report = analyze_bundle(bundle)
        assert detected_tuples(report) == truth.tuples(), f"seed {seed}"


def test_detector_exact_on_skewed_mixes(tmp_path):
    spec = FixtureSpec(
        seed=77,
        n_sources=8,
        pi_mix={"ssn": 3, "blood": 1},
        party_mix=1.0,
        destination_mix={"fileio": 1},
        chain_len=(3, 3),
    )
    bundle, truth = generate(spec, tmp_path)
    report = analyze_bundle(bundle)
    assert detected_tuples(report) == truth.tuples()
    assert all(t[0] in {"ssn", "blood"} for t in truth.tuples())
    assert all(t[1] == "third" for t in truth.tuples())
    assert all(t[2] == "fileio" for t in truth.tuples())


def test_single_flow_spec_is_fully_pinned(tmp_path):
    spec = FixtureSpec(
        seed=1,
        n_sources=1,
        n_decoys=0,
        pi_mix={"mental_health": 1},
        party_mix=0.0,
        destination_mix={"localstore": 1},
    )
    bundle, truth = generate(spec, tmp_path)
    (planted,) = truth.leaks
    assert planted.pi is PiKind.MENTAL_HEALTH
    assert planted.party == "first"
    assert planted.category is DestCategory.LOCALSTORE
    report = analyze_bundle(bundle)
    (leak,) = report["leaks"]
    assert leak["pi_kind"] == "mental_health"
    assert leak["party"] == "first"
    assert leak["destination"] == "localstore"
    assert leak["alt_third_party_path"] is False


def test_decoys_add_no_leaks(tmp_path):
    bundle, truth = generate(
        FixtureSpec(seed=40, n_sources=0, n_decoys=9), tmp_path
    )
    assert truth.tuples() == set()
    report = analyze_bundle(bundle)
    assert report["leaks"] == []
    # decoy views are real enough to be extracted and labeled
    assert report["views_total"] > 0
