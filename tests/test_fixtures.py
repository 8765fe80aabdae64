"""Fixture generator tests: reproducibility, ground truth, pinned bytes."""

from __future__ import annotations

import filecmp
import hashlib

import pytest

from uitaint.errors import InvalidSpec
from uitaint.fixtures import FixtureSpec, PlantedLeak, detected_tuples, generate
from uitaint.pipeline import analyze_bundle


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
    assert {lk.pi for lk in gt} <= {"email", "phone"}
    assert {lk.category for lk in gt} <= {"net", "log"}


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
    assert set(truth_a) == set(truth_b)
    assert _tree_identical(dir_a, dir_b)


def test_different_seeds_differ(tmp_path):
    _, truth_a = generate(FixtureSpec(seed=1, n_sources=6), tmp_path / "a")
    _, truth_b = generate(FixtureSpec(seed=2, n_sources=6), tmp_path / "b")
    assert set(truth_a) != set(truth_b)


def test_bundle_layout_on_disk(tmp_path):
    bundle, truth = generate(FixtureSpec(seed=5, n_sources=3), tmp_path)
    assert (bundle / "manifest.xml").is_file()
    assert (bundle / "res" / "rtable.txt").is_file()
    assert (bundle / "res" / "layout" / "main.xml").is_file()
    assert (bundle / "ground_truth.tsv").is_file()
    assert len(list((bundle / "code").glob("*.jtac"))) >= 3
    assert len(truth) == 3


def test_ground_truth_file_lists_the_returned_leaks(tmp_path):
    spec = FixtureSpec(seed=8, n_sources=6, party_mix=0.5, n_decoys=2)
    bundle, truth = generate(spec, tmp_path)
    assert all(type(lk) is PlantedLeak and all(type(f) is str for f in lk) for lk in truth)
    lines = (bundle / "ground_truth.tsv").read_text(encoding="utf-8").splitlines()
    assert lines == ["\t".join(lk) for lk in truth]


def test_detector_recovers_planted_leaks(tmp_path):
    for seed in (7, 21, 1234):
        spec = FixtureSpec(seed=seed, n_sources=6, n_decoys=5)
        bundle, truth = generate(spec, tmp_path / str(seed))
        report = analyze_bundle(bundle)
        assert detected_tuples(report) == set(truth), f"seed {seed}"


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
    assert detected_tuples(report) == set(truth)
    assert all(t[0] in {"ssn", "blood"} for t in set(truth))
    assert all(t[1] == "third" for t in set(truth))
    assert all(t[2] == "fileio" for t in set(truth))


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
    (planted,) = truth
    assert planted.pi == "mental_health"
    assert planted.party == "first"
    assert planted.category == "localstore"
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
    assert set(truth) == set()
    report = analyze_bundle(bundle)
    assert report["leaks"] == []
    # decoy views are real enough to be extracted and labeled
    assert report["views_total"] > 0


# ---------------------------------------------------------------------------
# pinned bytes
#
# sha256 over each file's path and bytes, taken before PlantedLeak became a
# tuple of report strings; the generator must keep writing the same bundles.


def _tree_digest(root):
    h = hashlib.sha256()
    for p in sorted(root.rglob("*"), key=lambda p: p.relative_to(root).as_posix()):
        if p.is_file():
            data = p.read_bytes()
            h.update(f"{p.relative_to(root).as_posix()}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


_PINNED_SPECS = {
    "default-1": FixtureSpec(seed=1),
    "default-7": FixtureSpec(seed=7),
    "default-29": FixtureSpec(seed=29),
    # the bench's isolated workload at seed 7
    "isolated": FixtureSpec(seed=7, n_sources=400, n_decoys=40),
    # mixes listed out of kind and category order, with a zero weight
    "every-option": FixtureSpec(
        seed=11, n_sources=12,
        pi_mix={"smoke_alcohol": 1, "ssn": 2.5, "email": 1, "age": 0},
        party_mix=0.3, destination_mix={"fileio": 0.5, "log": 2, "net": 1},
        n_decoys=7, chain_len=(2, 4),
    ),
}

_PINNED_DIGESTS = {
    "default-1": "8aab4014e1b52c969ee095e44ceacaa2c413ee0831ee8aa22747b45e4f5df5d9",
    "default-7": "cc4df2559d0b443411151e57cd9632a7ff6c50347067205ed55b87f105a6c25e",
    "default-29": "763f81bf438b4ec2f1b4bc1d7ee632f88c20d99a43a03cc92bf2af8441c029c7",
    "isolated": "a8b9b0c549e7ab416d388cefa45f1b350cd6412dd00996ea08f647ca6b92f95c",
    "every-option": "640820fa458a54bc30f2c5aa8486f04b19a5ede14dd601257a63b6c4d4bf17f6",
}


@pytest.mark.parametrize("name", sorted(_PINNED_SPECS))
def test_generated_bytes_are_pinned(tmp_path, name):
    bundle, _ = generate(_PINNED_SPECS[name], tmp_path / name)
    assert _tree_digest(bundle) == _PINNED_DIGESTS[name]
