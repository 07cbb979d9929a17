"""Golden outputs: sha256 of the artifacts of short fixed-seed pipeline runs.

Any change to the search loop, path assembly, LUT enumeration order, lint
rules or calibration sampling that alters a single output byte fails here.
A change that is meant to alter outputs must update the hashes and say why.
Hashes are taken with `cli.content_hash`, which drops the LUT's `created`
timestamp; history.csv, arch.json and .net.json carry no timestamp.
"""

import hashlib
import json

import pytest

from hwnas.cli import content_hash, main

# Noisy device: LUT values depend on the order the search space is profiled.
NOISY_DEVICE = {"type": "sim", "noise_sigma_rel": 0.05, "seed": 7}

SEARCH = {
    "toy-classification": ["--data-samples", "48", "--batch-size", "8",
                           "--lambda2", "20"],
    "toy-sr": ["--data-samples", "12", "--data-size", "32", "--batch-size", "2",
               "--lambda2", "50", "--lr-weights", "0.01"],
}

GOLDEN = {
    "toy-classification": {
        "lut": "2759376aacd51e9ce8ae7c401e890d965bb9047e283780299a462c7a87a0d6c7",
        "history": "4aec8508466ea8d1c2b0f26b2bec27876a71534238ec4b684d22107c3ac10072",
        "arch": "ad0e17918f9ca887312a075a7e4aeccf17c833d08e517083aa8eadebb9495c10",
        "compact": "07be2e4dabde53b1f20c5539469585ceabc524e5e59499a1e34c9442da9dc3c3",
    },
    "toy-sr": {
        "lut": "cd793479d55fa300ded78550d28abe8893c8bca363dc1439596731eab42148c3",
        "history": "ab308aadaf1670f939b70863767b9f1acc6e31a98724e4c5bcd4db3c936e7b7e",
        "arch": "cb9bde3bf593bf96c8a42fcad7446993f8a9f7d879e3582abb83fd3291a7f730",
        "compact": "f4e5471ad5017397bd18e53854a4f91aa96e35eb71c5754a47fa0b9f3414d082",
    },
}

# toy-classification and calibration lint clean: both print "[]".
GOLDEN_LINT = {
    "toy-classification": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "toy-sr": "73541273fc656a23e30578289fc3e1cf8e58bd3847fe57ee643c943c8a4a3c76",
    "calibration": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
}

GOLDEN_CALIBRATE = "fca426e71f98b9bef88b4f96d4a60d0363a261b4aef6763a059d0d2ac5e70951"
# the raw bytes of calib.json, so its key order counts too
GOLDEN_CALIBRATE_JSON = "1f1cfc964793841415e08863027c8dc99d006039a1e087158462068ad5857b02"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def noisy_device(tmp_path):
    path = tmp_path / "noisy.device.json"
    path.write_text(json.dumps(NOISY_DEVICE))
    return str(path)


@pytest.mark.parametrize("space", sorted(SEARCH))
def test_search_derive_golden(space, tmp_path, noisy_device):
    lut, run = tmp_path / "space.lut.json", tmp_path / "run"
    compact = tmp_path / "compact.net.json"
    assert main(["lut", "build", "--net", space, "--device", noisy_device,
                 "--out", str(lut)]) == 0
    assert main(["search", "run", "--net", space, "--lut", str(lut),
                 "--rounds", "2", "--weight-steps", "2", "--arch-steps", "2",
                 "--seed", "5", "--out-dir", str(run), *SEARCH[space]]) == 0
    assert main(["derive", "--net", space, "--arch", str(run / "arch.json"),
                 "--out", str(compact)]) == 0
    got = {"lut": content_hash(lut), "history": content_hash(run / "history.csv"),
           "arch": content_hash(run / "arch.json"), "compact": content_hash(compact)}
    assert got == GOLDEN[space]


@pytest.mark.parametrize("space", sorted(GOLDEN_LINT))
def test_lint_golden(space, capsys):
    assert main(["--json", "lint", "--net", space, "--exit-zero"]) == 0
    assert _sha(capsys.readouterr().out) == GOLDEN_LINT[space]


def test_calibrate_golden(tmp_path, noisy_device):
    lut = tmp_path / "cal.lut.json"
    assert main(["lut", "build", "--net", "calibration", "--out", str(lut)]) == 0
    assert main(["calibrate", "--net", "calibration", "--lut", str(lut),
                 "--device", noisy_device, "--samples", "12", "--seed", "3",
                 "--out-prefix", str(tmp_path / "cal" / "calib")]) == 0
    assert content_hash(tmp_path / "cal" / "calib.csv") == GOLDEN_CALIBRATE
    summary = (tmp_path / "cal" / "calib.json").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == GOLDEN_CALIBRATE_JSON
