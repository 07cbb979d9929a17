import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hwnas
from hwnas import cli, costmodel
from hwnas.cli import build_parser, content_hash, main
from hwnas.errors import DeviceError
from hwnas.graph import (CompactNet, OperatorSpec, OpKind, Task, TensorShape,
                         save_net)
from hwnas.jsonio import array_to_json
from hwnas.latency import LatencyTable, load_lut, save_lut
from hwnas.profiler import ExternalCommandRunner
from hwnas.spaces import toy_classification_supernet, toy_sr_supernet


def run_cli(*argv):
    return main(list(argv))


def run_module(*argv):
    """`python -m hwnas.cli` in a new interpreter: all it prints, as a user sees it."""
    env = dict(os.environ, PYTHONPATH=str(Path(hwnas.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "hwnas.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


# ---------------------------------------------------------------------------
# lut build
# ---------------------------------------------------------------------------

def test_lut_build_covers_space(tmp_path, toy_supernet):
    net_path = tmp_path / "toy.net.json"
    save_net(toy_supernet, net_path)
    out = tmp_path / "toy.lut.json"
    assert run_cli("lut", "build", "--net", str(net_path), "--device", "sim",
                   "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    from hwnas.profiler import enumerate_search_space
    assert set(doc["entries"]) == {k for k, _, _ in
                                   enumerate_search_space(toy_supernet)}
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert "lut" in manifest["artifacts"]


def test_builtin_space_names_accepted(tmp_path):
    out = tmp_path / "l.lut.json"
    assert run_cli("lut", "build", "--net", "toy-classification",
                   "--out", str(out)) == 0
    assert out.exists()


# ---------------------------------------------------------------------------
# search run error contract
# ---------------------------------------------------------------------------

def test_search_missing_lut_entry_exit_1_names_key(tmp_path, capsys):
    lut = LatencyTable(entries={})  # empty: first lookup fails
    lut_path = tmp_path / "empty.lut.json"
    save_lut(lut, lut_path)
    rc = run_cli("search", "run", "--net", "toy-classification",
                 "--lut", str(lut_path), "--rounds", "1", "--seed", "0",
                 "--out-dir", str(tmp_path / "run"), "--data-samples", "40")
    assert rc == 1
    err = capsys.readouterr().err
    assert "Conv:k3:s1" in err  # message names a canonical key


def test_search_config_file_matches_flags_and_seed_overrides_it(tmp_path):
    lut = tmp_path / "t.lut.json"
    assert run_cli("lut", "build", "--net", "toy-classification", "--out", str(lut)) == 0
    config = tmp_path / "s.json"
    config.write_text(json.dumps({"lambda2": 20.0, "rounds": 1, "batch_size": 8,
                                  "weight_steps_per_round": 2, "arch_steps_per_round": 1,
                                  "seed": 5}))
    run = ["search", "run", "--net", "toy-classification", "--lut", str(lut),
           "--data-samples", "40"]
    flags = ["--lambda2", "20", "--rounds", "1", "--batch-size", "8",
             "--weight-steps", "2", "--arch-steps", "1"]
    for out, argv in (("file", ["--config", str(config)]),
                      ("file-seed-3", ["--config", str(config), "--seed", "3"]),
                      ("flags-seed-3", [*flags, "--seed", "3"])):
        assert run_cli(*run, *argv, "--out-dir", str(tmp_path / out)) == 0
    seeds = {out: json.loads((tmp_path / out / "run_manifest.json").read_text())["seed"]
             for out in ("file", "file-seed-3", "flags-seed-3")}
    assert seeds == {"file": 5, "file-seed-3": 3, "flags-seed-3": 3}
    for name in ("history.csv", "arch.json"):
        assert ((tmp_path / "file-seed-3" / name).read_bytes()
                == (tmp_path / "flags-seed-3" / name).read_bytes())


def test_search_flag_given_overrides_its_config_field(tmp_path):
    """Every search flag given on the command line, not only --seed, beats the file."""
    lut = tmp_path / "t.lut.json"
    assert run_cli("lut", "build", "--net", "toy-classification", "--out", str(lut)) == 0
    config = tmp_path / "s.json"
    config.write_text(json.dumps({"rounds": 1, "batch_size": 4, "weight_steps_per_round": 1,
                                  "arch_steps_per_round": 1}))
    assert run_cli("search", "run", "--net", "toy-classification", "--lut", str(lut),
                   "--config", str(config), "--rounds", "2", "--data-samples", "40",
                   "--out-dir", str(tmp_path / "run")) == 0
    rows = (tmp_path / "run" / "history.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["0", "1"]


LEAKY_NET = {"task": "Classification", "input_shape": [3, 4, 4], "num_classes": 2,
             "layers": [{"kind": "LeakyReLU", "in_channels": 3, "out_channels": 3,
                         "activation_slope": "steep"}]}

MALFORMED = {
    "device-unknown-key": ("dev.json", {"type": "sim", "bogus": 1},
                           ["lut", "build", "--net", "toy-classification",
                            "--device", "{file}", "--out", "{tmp}/l.lut.json"]),
    "net-slope-not-a-number": ("bad.net.json", LEAKY_NET, ["lint", "--net", "{file}"]),
    "arch-without-alphas": ("arch.json", {"logits": [[0.0]]},
                            ["derive", "--net", "toy-classification", "--arch", "{file}",
                             "--out", "{tmp}/c.net.json"]),
    "device-value-wrong-type": ("dev.json", {"type": "sim", "clock_ghz": "fast"},
                                ["lut", "build", "--net", "toy-classification",
                                 "--device", "{file}", "--out", "{tmp}/l.lut.json"]),
    "device-type-not-a-string": ("dev.json", {"type": ["sim"]},
                                 ["lut", "build", "--net", "toy-classification",
                                  "--device", "{file}", "--out", "{tmp}/l.lut.json"]),
    "device-seed-not-an-int": ("dev.json", {"type": "sim", "seed": 1.5},
                               ["lut", "build", "--net", "toy-classification",
                                "--device", "{file}", "--out", "{tmp}/l.lut.json"]),
    "device-template-unknown-field": ("dev.json", {"type": "command",
                                                   "command_template": "echo {nope}"},
                                      ["lut", "build", "--net", "toy-classification",
                                       "--device", "{file}", "--out", "{tmp}/l.lut.json"]),
    "device-template-open-brace": ("dev.json", {"type": "command", "command_template": "echo {"},
                                   ["lut", "build", "--net", "toy-classification",
                                    "--device", "{file}", "--out", "{tmp}/l.lut.json"]),
    "report-entry-without-path": ("run_manifest.json",
                                  {"command": "x", "artifacts": {"x": {"sha256": "0"}}},
                                  ["report", "--manifest", "{file}",
                                   "--out-dir", "{tmp}/rep"]),
}

# Out-of-range device config values end in exit 1 before any measurement.
for _kind, _field, _value in [("sim", "clock_ghz", 0), ("sim", "macs_per_cycle", -256.0),
                              ("sim", "dsp_penalty_factor", 0.0),
                              ("sim", "graph_overhead_ms", -0.2),
                              ("sim", "dma_ms_per_mb", -0.01),
                              ("sim", "noise_sigma_rel", -0.05),
                              ("sim", "channel_granularity", 0),
                              ("command", "timeout_s", 0)]:
    _doc = {"type": _kind, _field: _value}
    if _kind == "command":
        _doc["command_template"] = "true"
    MALFORMED[f"device-{_field}-out-of-range"] = (
        "dev.json", _doc, ["lut", "build", "--net", "toy-classification",
                           "--device", "{file}", "--out", "{tmp}/l.lut.json"])


TINY_NET = {"task": "Classification", "input_shape": [2, 2, 2], "num_classes": 2,
            "layers": [{"kind": "Linear", "in_channels": 8, "out_channels": 2}]}
EMPTY_LUT = {"metadata": {"source": "Manual"}, "entries": {}}
LINT = ["lint", "--net", "{file}"]
FROM_MODEL = ["lut", "from-model", "--net", "toy-classification", "--model", "{file}",
              "--out", "{tmp}/p.lut.json"]
CALIBRATE = ["calibrate", "--net", "toy-classification", "--lut", "{file}",
             "--out-prefix", "{tmp}/cal/c"]



def _model_doc(b3=0.0, feat_std=1.0) -> dict:
    """A cost-model file that loads; with zero weights it predicts exp(b3)."""
    (h1, h2), d = costmodel.HIDDEN, costmodel.FEATURE_DIM
    arrays = {"w1": np.zeros((h1, d)), "b1": np.zeros(h1), "w2": np.zeros((h2, h1)),
              "b2": np.zeros(h2), "w3": np.zeros(h2), "feat_mean": np.zeros(d),
              "feat_std": np.full(d, feat_std)}
    return {"version": costmodel.MODEL_VERSION, "b3": b3,
            **{name: array_to_json(a) for name, a in arrays.items()}}


# Valid JSON of the wrong shape, one file each.
MALFORMED.update({
    "model-not-an-object": ("m.json", [1], FROM_MODEL),
    "model-without-w1": ("m.json", {"version": 1}, FROM_MODEL),
    # loadable models whose predictions are not finite
    "model-b3-overflows": ("m.json", _model_doc(b3=1e300), FROM_MODEL),
    "model-feat-std-zero": ("m.json", _model_doc(feat_std=0.0), FROM_MODEL),
    "lut-entries-a-list": ("t.lut.json", {"entries": []}, CALIBRATE),
    "lut-metadata-a-number": ("t.lut.json", {"metadata": 5, "entries": {}}, CALIBRATE),
    "records-line-a-number": ("r.records.jsonl", 5,
                              ["costmodel", "train", "--records", "{file}",
                               "--out", "{tmp}/m.json"]),
    "net-layers-a-number": ("c.net.json", dict(TINY_NET, layers=5), LINT),
    "net-candidates-a-number": ("s.net.json", {"task": "Classification",
                                               "input_shape": [3, 8, 8], "num_classes": 2,
                                               "stages": [{"candidates": 5}]}, LINT),
    "arch-alphas-not-lists": ("arch.json", {"alphas": [5, 5, 5]},
                              ["derive", "--net", "toy-classification", "--arch", "{file}",
                               "--out", "{tmp}/c.net.json"]),
})


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exit_1_without_traceback(case, tmp_path):
    name, doc, argv = MALFORMED[case]
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    proc = run_module(*[a.format(file=path, tmp=tmp_path) for a in argv])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def _checkpoint(weight) -> dict:
    return {"version": 1, "params": {"layers.0.weight": weight,
                                     "layers.0.bias": {"dims": [2], "data": [0.0, 0.0]}}}


EVAL = ["eval", "--net", "{tmp}/c.net.json", "--checkpoint", "{tmp}/w.json"]
SEARCH_CONFIG = ["search", "run", "--net", "toy-classification", "--lut", "{tmp}/t.lut.json",
                 "--config", "{tmp}/s.json", "--out-dir", "{tmp}/run"]


def _json(doc) -> bytes:
    return json.dumps(doc).encode()


# Inputs that `MALFORMED` cannot hold: raw bytes, companion files, a directory.
MALFORMED_FILES = {
    "model-invalid-json": ({"m.json": b'{"version": 1,'},
                           [a.replace("{file}", "{tmp}/m.json") for a in FROM_MODEL]),
    "checkpoint-invalid-json": ({"c.net.json": _json(TINY_NET), "w.json": b"{"}, EVAL),
    "checkpoint-not-an-object": ({"c.net.json": _json(TINY_NET), "w.json": b"[]"}, EVAL),
    "checkpoint-without-params": ({"c.net.json": _json(TINY_NET),
                                   "w.json": _json({"version": 1})}, EVAL),
    "checkpoint-data-not-a-list": ({"c.net.json": _json(TINY_NET),
                                    "w.json": _json(_checkpoint({"dims": [2, 8], "data": "x"}))},
                                   EVAL),
    "checkpoint-entry-without-data": ({"c.net.json": _json(TINY_NET),
                                       "w.json": _json(_checkpoint({"dims": [2, 8]}))}, EVAL),
    "search-config-rounds-not-an-int": ({"t.lut.json": _json(EMPTY_LUT),
                                         "s.json": _json({"rounds": "x"})}, SEARCH_CONFIG),
    "search-config-rounds-negative": ({"t.lut.json": _json(EMPTY_LUT),
                                       "s.json": _json({"rounds": -1})}, SEARCH_CONFIG),
    "net-random-bytes": ({"c.net.json": random.Random(0).randbytes(256)},
                         ["lint", "--net", "{tmp}/c.net.json"]),
    "records-a-directory": ({}, ["costmodel", "train", "--records", "{tmp}",
                                 "--out", "{tmp}/m.json"]),
}

# A supernet whose stage 0 candidate 1 makes 8 channels where the stage declares 16.
BAD_SUPERNET = {"task": "Classification", "input_shape": [3, 8, 8], "num_classes": 4,
                "stem": [{"kind": "Conv", "kernel": 3, "in_channels": 3, "out_channels": 16}],
                "stages": [{"candidates": [
                    {"kind": "Conv", "kernel": 3, "in_channels": 16, "out_channels": 16},
                    {"kind": "Conv", "kernel": 3, "in_channels": 16, "out_channels": 8}]}],
                "head": [{"kind": "Linear", "in_channels": 1024, "out_channels": 4}]}
BAD = {"bad.net.json": _json(BAD_SUPERNET), "arch.json": _json({"alphas": [[0.0, 1.0]]})}
INVALID_SUPERNET = "invalid supernet {tmp}/bad.net.json: stages[0].candidates[1]: produces"

# A --net of the wrong kind, or a supernet that fails graph.validate: the error
# names the cause, and the command writes nothing.
NET_ERRORS = {
    "derive-invalid-supernet": (BAD, ["derive", "--net", "{tmp}/bad.net.json", "--arch",
                                      "{tmp}/arch.json", "--out", "{tmp}/c.net.json"],
                                INVALID_SUPERNET),
    "calibrate-invalid-supernet": (BAD, ["calibrate", "--net", "{tmp}/bad.net.json",
                                         "--lut", "{tmp}/t.lut.json",
                                         "--out-prefix", "{tmp}/cal/c"], INVALID_SUPERNET),
    "lut-from-model-invalid-supernet": (BAD, ["lut", "from-model", "--net",
                                              "{tmp}/bad.net.json", "--model", "{tmp}/m.json",
                                              "--out", "{tmp}/p.lut.json"], INVALID_SUPERNET),
    "lut-build-invalid-supernet": (BAD, ["lut", "build", "--net", "{tmp}/bad.net.json",
                                         "--out", "{tmp}/l.lut.json"], INVALID_SUPERNET),
    "search-invalid-supernet": (BAD, ["search", "run", "--net", "{tmp}/bad.net.json",
                                      "--lut", "{tmp}/t.lut.json", "--out-dir", "{tmp}/run"],
                                INVALID_SUPERNET),
    "train-compact-given-supernet": ({}, ["train-compact", "--net", "toy-classification",
                                          "--out", "{tmp}/w.json"],
                                     "toy-classification is not a compact network file"),
    "lut-from-model-given-compact-net": ({"c.net.json": _json(TINY_NET)},
                                         ["lut", "from-model", "--net", "{tmp}/c.net.json",
                                          "--model", "{tmp}/m.json", "--out", "{tmp}/p.lut.json"],
                                         "{tmp}/c.net.json is not a supernet file"),
}

# A supernet whose stem op expects 4 channels of a 3-channel input.
BAD_STEM = {"bad.net.json": _json(dict(BAD_SUPERNET, stem=[
    {"kind": "Conv", "kernel": 3, "in_channels": 4, "out_channels": 16}]))}
# A compact net whose layer 1 expects 8 channels where layer 0 makes 16.
BAD_LAYERS = {"c.net.json": _json({
    "task": "Classification", "input_shape": [3, 8, 8], "num_classes": 4,
    "layers": [{"kind": "Conv", "kernel": 3, "in_channels": 3, "out_channels": 16},
               {"kind": "Conv", "kernel": 3, "in_channels": 8, "out_channels": 16},
               {"kind": "Linear", "in_channels": 1024, "out_channels": 4}]})}
INVALID_COMPACT = "invalid compact network {tmp}/c.net.json: layers[1]: Conv: expects 8 channels"
TRAIN = ["train-compact", "--net", "{tmp}/c.net.json", "--out", "{tmp}/w.json"]
# A 3x2x2 classifier with 2 logits for its 4 classes.
CLS_NET = {"task": "Classification", "input_shape": [3, 2, 2], "num_classes": 4,
           "layers": [{"kind": "Linear", "in_channels": 12, "out_channels": 2}]}
SR_NET = {"task": "SuperResolution", "input_shape": [3, 4, 4], "sr_scale": 2,
          "layers": [{"kind": "UpsampleNearest", "in_channels": 3, "out_channels": 3,
                      "scale_factor": 2}]}

# Every --net is validated, and the data is shaped by the net: each error names
# the net and the location, before any data is generated.
NET_ERRORS.update({
    "lut-build-bad-stem": (BAD_STEM, ["lut", "build", "--net", "{tmp}/bad.net.json",
                                      "--out", "{tmp}/l.lut.json"], "stem[0]: Conv: expects 4"),
    "lint-bad-stem": (BAD_STEM, ["lint", "--net", "{tmp}/bad.net.json"],
                      "stem[0]: Conv: expects 4"),
    "train-compact-invalid-compact-net": (BAD_LAYERS, TRAIN, INVALID_COMPACT),
    "eval-invalid-compact-net": (BAD_LAYERS, EVAL, INVALID_COMPACT),
    "lint-invalid-compact-net": (BAD_LAYERS, ["lint", "--net", "{tmp}/c.net.json"],
                                 INVALID_COMPACT),
    "lint-compact-net-without-num-classes": (
        {"c.net.json": _json({k: v for k, v in TINY_NET.items() if k != "num_classes"})},
        ["lint", "--net", "{tmp}/c.net.json"],
        "invalid compact network {tmp}/c.net.json: num_classes: classification net requires"),
    "search-data-size-not-the-net-input": (
        {"t.lut.json": _json(EMPTY_LUT)},
        ["search", "run", "--net", "toy-sr", "--lut", "{tmp}/t.lut.json", "--data-size", "8",
         "--out-dir", "{tmp}/run"], "toy-sr: its input is 3x32x32, not the data's 3x8x8"),
    "train-compact-input-not-3xNxN": ({"c.net.json": _json(TINY_NET)}, TRAIN,
                                      "c.net.json: its input is 2x2x2"),
    "train-compact-one-class": ({"c.net.json": _json(dict(CLS_NET, num_classes=1))}, TRAIN,
                                "c.net.json: num_classes must be finite and >= 2"),
    "train-compact-sr-scale-3": ({"c.net.json": _json(dict(SR_NET, sr_scale=3))}, TRAIN,
                                 "c.net.json: sr_scale must be 2"),
})
MALFORMED_FILES.update({case: (files, argv) for case, (files, argv, _) in NET_ERRORS.items()})
# Labels 2 and 3 have no logit.
MALFORMED_FILES["train-compact-fewer-logits-than-classes"] = (
    {"c.net.json": _json(CLS_NET)}, [*TRAIN, "--steps", "1", "--data-samples", "8",
                                     "--data-size", "2"])

# A record whose op does not fit its input shape: a 16-channel Conv on a 3-channel map.
UNFIT_RECORD = _json({"op": {"kind": "Conv", "in_channels": 16, "out_channels": 16,
                             "kernel": 3},
                      "input_shape": [3, 8, 8], "measured_cycles": 1000.0})
DERIVE = ["derive", "--net", "toy-classification", "--arch", "{tmp}/arch.json",
          "--out", "{tmp}/c.net.json"]

# Inputs that parse but do not fit: the error names the cause and its place.
INPUT_ERRORS = {
    "records-op-does-not-fit-its-shape": (
        {"r.records.jsonl": b"\n".join([UNFIT_RECORD] * 60)},
        ["costmodel", "train", "--records", "{tmp}/r.records.jsonl", "--out", "{tmp}/m.json"],
        "{tmp}/r.records.jsonl:1: Conv: expects 16 channels"),
    "arch-two-vectors-for-three-stages": (
        {"arch.json": _json({"alphas": [[0.0, 0.0, 0.0]] * 2})}, DERIVE,
        "2 arch vectors for 3 stages"),
    "arch-stage-vector-of-wrong-length": (
        {"arch.json": _json({"alphas": [[0.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 0.0]]})},
        DERIVE, "stage 1: 2 logits for 3 candidates"),
}
MALFORMED_FILES.update({case: (files, argv) for case, (files, argv, _) in INPUT_ERRORS.items()})


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_error_names_its_cause_and_writes_nothing(case, tmp_path, capsys):
    files, argv, message = INPUT_ERRORS[case]
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert run_cli(*[a.format(tmp=tmp_path) for a in argv]) == 1
    assert message.format(tmp=tmp_path) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_file_exit_1_without_traceback(case, tmp_path):
    files, argv = MALFORMED_FILES[case]
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    proc = run_module(*[a.format(tmp=tmp_path) for a in argv])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("case", sorted(NET_ERRORS))
def test_net_error_names_its_cause_and_writes_nothing(case, tmp_path, capsys):
    files, argv, message = NET_ERRORS[case]
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert run_cli(*[a.format(tmp=tmp_path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert message.format(tmp=tmp_path) in err
    assert "Finding(" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


FLAG_COMMANDS = {
    "lut build": ["lut", "build", "--net", "toy-classification", "--out", "{tmp}/o.lut.json"],
    "lut from-model": ["lut", "from-model", "--net", "toy-classification",
                       "--model", "{tmp}/m.json", "--out", "{tmp}/o.lut.json"],
    "costmodel train": ["costmodel", "train", "--simulate", "60", "--out", "{tmp}/n.json"],
    "search run": ["search", "run", "--net", "toy-classification", "--lut", "{tmp}/t.lut.json",
                   "--rounds", "1", "--out-dir", "{tmp}/run"],
    "train-compact": ["train-compact", "--net", "{tmp}/c.net.json", "--steps", "2",
                      "--out", "{tmp}/w.json"],
    "calibrate": ["calibrate", "--net", "toy-classification", "--lut", "{tmp}/t.lut.json",
                  "--out-prefix", "{tmp}/cal/c"],
    "lint": ["lint", "--net", "{tmp}/c.net.json"],
    "eval": ["eval", "--net", "{tmp}/c.net.json", "--checkpoint", "{tmp}/w.json"],
}

OUT_OF_RANGE_FLAGS = [
    ("lut build", "--stack-n", "0"), ("lut build", "--stack-n", "-3"),
    ("lut build", "--trials", "0"), ("lut from-model", "--clock-ghz", "0"),
    ("costmodel train", "--epochs", "0"),
    ("search run", "--rounds", "-1"), ("search run", "--batch-size", "0"),
    ("search run", "--weight-steps", "0"), ("search run", "--arch-steps", "0"),
    ("search run", "--lr-weights", "0"), ("search run", "--lr-arch", "0"),
    ("search run", "--lambda1", "-1"), ("search run", "--lambda2", "-1"),
    ("search run", "--lambda2", "nan"), ("search run", "--data-samples", "6"),
    ("train-compact", "--batch-size", "0"), ("train-compact", "--data-samples", "0"),
    ("train-compact", "--data-size", "0"),
    ("calibrate", "--samples", "0"), ("calibrate", "--trials", "0"),
    ("train-compact", "--steps", "0"), ("train-compact", "--steps", "-1"),
    ("train-compact", "--lr", "0"), ("train-compact", "--lr", "-1"),
    ("train-compact", "--weight-decay", "-1"), ("costmodel train", "--lr", "0"),
    ("costmodel train", "--lr", "-1"), ("lint", "--streaming-threshold", "-1"),
    # non-finite values of every float flag
    ("lut from-model", "--clock-ghz", "inf"), ("lut from-model", "--clock-ghz", "nan"),
    ("costmodel train", "--lr", "inf"), ("costmodel train", "--lr", "nan"),
    ("train-compact", "--lr", "inf"), ("train-compact", "--lr", "nan"),
    ("search run", "--lr-weights", "inf"), ("search run", "--lr-weights", "nan"),
    ("search run", "--lr-arch", "inf"), ("search run", "--lr-arch", "nan"),
    ("search run", "--lambda1", "inf"), ("search run", "--lambda1", "nan"),
    ("train-compact", "--weight-decay", "inf"), ("train-compact", "--weight-decay", "nan"),
    ("train-compact", "--data-noise", "inf"), ("train-compact", "--data-noise", "nan"),
    ("train-compact", "--data-noise", "-1"),
    # numpy seeds must be >= 0; the cost model needs 50 records
    ("search run", "--seed", "-1"), ("costmodel train", "--seed", "-1"),
    ("train-compact", "--seed", "-1"), ("train-compact", "--data-seed", "-1"),
    ("eval", "--seed", "-1"), ("calibrate", "--seed", "-1"),
    ("costmodel train", "--simulate", "49"),
]


@pytest.mark.parametrize("command,flag,value", OUT_OF_RANGE_FLAGS,
                         ids=[f"{c}{f}={v}" for c, f, v in OUT_OF_RANGE_FLAGS])
def test_out_of_range_flag_exit_2(command, flag, value, tmp_path, capsys):
    """A value below the flag's lower bound is an argument error, raised
    before any input is read. Without the bounds these end in a traceback,
    an unrelated error or (calibrate --samples 0) a NaN MAPE."""
    (tmp_path / "c.net.json").write_text(json.dumps(TINY_NET))
    (tmp_path / "t.lut.json").write_text(json.dumps(EMPTY_LUT))
    h, d = 64, costmodel.FEATURE_DIM
    costmodel.save_model(costmodel.CostModel(
        w1=np.zeros((h, d)), b1=np.zeros(h), w2=np.zeros((h, h)), b2=np.zeros(h),
        w3=np.zeros(h), b3=0.0, feat_mean=np.zeros(d), feat_std=np.ones(d)),
        tmp_path / "m.json")
    argv = [a.format(tmp=tmp_path) for a in FLAG_COMMANDS[command]] + [flag, value]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.net.json", "m.json", "t.lut.json"]


def _options(parser, command=()):
    """(command words, action) for every option of `parser` and its subcommands."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _options(sub, (*command, name))
        elif action.option_strings:
            yield command, action


def test_every_float_flag_rejects_inf(capsys):
    """A float flag added without the finite-then-bounded type fails here."""
    floats = [(command, action.option_strings[0])
              for command, action in _options(build_parser())
              if getattr(action.type, "__name__", None) == "float"]
    assert len(floats) >= 10
    for command, flag in floats:
        with pytest.raises(SystemExit) as exc:
            run_cli(*command, flag, "inf")
        assert exc.value.code == 2, (command, flag)
        assert f"argument {flag}: " in capsys.readouterr().err, (command, flag)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_costmodel_overflow_is_nonfinite_loss(tmp_path, capsys):
    """A learning rate that blows the weights up without a non-finite loss
    still saves no model: its MAPE overflows."""
    out = tmp_path / "cost.model.json"
    assert run_cli("costmodel", "train", "--simulate", "200", "--epochs", "100",
                   "--seed", "3", "--lr", "1e30", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: cost-model predictions overflow")
    assert not out.exists()


# Learning rates at which training overflows to a non-finite loss.
DIVERGING = {
    "search run": ["search", "run", "--net", "toy-sr", "--lut", "{tmp}/sr.lut.json",
                   "--rounds", "1", "--lr-weights", "50", "--data-samples", "8",
                   "--batch-size", "2", "--out-dir", "{tmp}/run"],
    "train-compact": ["train-compact", "--net", "{tmp}/conv.net.json", "--steps", "20",
                      "--lr", "1e6", "--data-samples", "40", "--out", "{tmp}/w.json"],
}


@pytest.mark.parametrize("command", sorted(DIVERGING))
def test_divergence_prints_only_its_error_line(command, tmp_path):
    """The overflow that leads to a non-finite loss prints no RuntimeWarning."""
    assert run_cli("lut", "build", "--net", "toy-sr",
                   "--out", str(tmp_path / "sr.lut.json")) == 0
    save_net(toy_classification_supernet().path((0, 0, 0)), tmp_path / "conv.net.json")
    proc = run_module(*[a.format(tmp=tmp_path) for a in DIVERGING[command]])
    assert proc.returncode == 1, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: non-finite loss")
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


def test_costmodel_simulate_on_command_device_exit_1(tmp_path):
    """Only the simulator has a closed-form per-op cost to draw records from."""
    dev = tmp_path / "dev.json"
    dev.write_text(json.dumps({"type": "command", "command_template": "true"}))
    proc = run_module("costmodel", "train", "--device", str(dev), "--simulate", "60",
                      "--out", str(tmp_path / "m.json"))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: --simulate needs the sim device")
    assert "--records" in proc.stderr and "Traceback" not in proc.stderr


def test_device_sim_ignores_environment(tmp_path, monkeypatch):
    """`--device sim` is the default simulator whatever the environment holds."""
    noisy = tmp_path / "dev.json"
    noisy.write_text(json.dumps({"type": "sim", "noise_sigma_rel": 0.05, "seed": 7}))
    monkeypatch.delenv("HWNAS_DEVICE_CONFIG", raising=False)
    assert run_cli("lut", "build", "--net", "toy-classification", "--device", "sim",
                   "--out", str(tmp_path / "a.lut.json")) == 0
    monkeypatch.setenv("HWNAS_DEVICE_CONFIG", str(noisy))
    assert run_cli("lut", "build", "--net", "toy-classification", "--device", "sim",
                   "--out", str(tmp_path / "b.lut.json")) == 0
    assert content_hash(tmp_path / "a.lut.json") == content_hash(tmp_path / "b.lut.json")


def test_data_classes_is_not_a_flag(capsys):
    """The class count is the net's own `num_classes`."""
    with pytest.raises(SystemExit) as exc:
        run_cli("train-compact", "--net", "toy-classification", "--out", "w.json",
                "--data-classes", "4")
    assert exc.value.code == 2
    assert "unrecognized arguments: --data-classes" in capsys.readouterr().err


def test_dataset_is_sized_from_the_net():
    """Without --data-size, toy-sr trains on its own 3x32x32 inputs and 3x64x64 targets."""
    args = build_parser().parse_args(["search", "run", "--net", "toy-sr", "--lut", "t.lut.json",
                                      "--out-dir", "run", "--data-samples", "8"])
    x, y = cli._make_dataset(toy_sr_supernet(), args).train
    assert (x.shape[1:], y.shape[1:]) == ((3, 32, 32), (3, 64, 64))


def test_argument_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("search", "run")  # missing required arguments
    assert exc.value.code == 2


def test_costmodel_train_refuses_to_save_records_it_was_given(tmp_path, capsys):
    """--save-records writes simulated records; with --records it would write nothing."""
    with pytest.raises(SystemExit) as exc:
        run_cli("costmodel", "train", "--records", str(tmp_path / "r.records.jsonl"),
                "--save-records", str(tmp_path / "s.records.jsonl"),
                "--out", str(tmp_path / "m.json"))
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_costmodel_train_has_no_clock_of_its_own(tmp_path, capsys):
    """Simulated records count cycles of the sim device's own clock_ghz."""
    with pytest.raises(SystemExit) as exc:
        run_cli("costmodel", "train", "--clock-ghz", "0.7", "--out", str(tmp_path / "m.json"))
    assert exc.value.code == 2
    assert "unrecognized arguments: --clock-ghz" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_unknown_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# lint exit codes
# ---------------------------------------------------------------------------

def test_lint_clean_net_exit_0(tmp_path, capsys):
    net = CompactNet(task=Task.Classification, input_shape=TensorShape(3, 8, 8),
                     layers=(OperatorSpec(OpKind.Conv, 3, 32, kernel=3),
                             OperatorSpec(OpKind.Linear, 32 * 64, 16)),
                     num_classes=16)
    p = tmp_path / "clean.net.json"
    save_net(net, p)
    assert run_cli("lint", "--net", str(p)) == 0
    assert "no findings" in capsys.readouterr().out


def test_lint_warning_exit_1(tmp_path, capsys):
    net = CompactNet(task=Task.Classification, input_shape=TensorShape(3, 8, 8),
                     layers=(OperatorSpec(OpKind.Conv, 3, 24, kernel=3),
                             OperatorSpec(OpKind.Linear, 24 * 64, 16)),
                     num_classes=16)
    p = tmp_path / "warn.net.json"
    save_net(net, p)
    assert run_cli("lint", "--net", str(p)) == 1
    assert "VPU002" in capsys.readouterr().out
    assert run_cli("lint", "--net", str(p), "--exit-zero") == 0


# ---------------------------------------------------------------------------
# external command device
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("template, cause", [("echo {nope}", "KeyError"),
                                             ("echo {", "ValueError"),
                                             ("echo {0}", "IndexError")])
def test_bad_command_template_fails_as_the_device_is_read(template, cause, tmp_path, capsys):
    """A template that does not format names the device file before anything is measured."""
    dev = tmp_path / "dev.json"
    dev.write_text(json.dumps({"type": "command", "command_template": template}))
    assert main(["lut", "build", "--net", "toy-classification", "--device", str(dev),
                 "--out", str(tmp_path / "l.lut.json")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {dev}: command_template ") and cause in line
    assert not list(tmp_path.glob("*.lut.json"))


def _echo_device(tmp_path, body):
    script = tmp_path / "dev.py"
    script.write_text(body)
    return ExternalCommandRunner(
        command_template=f"{sys.executable} {script} {{graph}} {{trials}}",
        timeout_s=30)


def test_external_command_runner_parses_stdout(tmp_path):
    dev = _echo_device(tmp_path, (
        "import sys\n"
        "for _ in range(int(sys.argv[2])):\n"
        "    print(1.5)\n"))
    net = CompactNet(task=Task.Classification, input_shape=TensorShape(3, 4, 4),
                     layers=(OperatorSpec(OpKind.Identity, 3, 3),),
                     num_classes=2)
    assert dev.run(net, 4) == [1.5, 1.5, 1.5, 1.5]


def test_external_command_runner_receives_net_json(tmp_path):
    dev = _echo_device(tmp_path, (
        "import json, sys\n"
        "doc = json.load(open(sys.argv[1]))\n"
        "for _ in range(int(sys.argv[2])):\n"
        "    print(float(len(doc['layers'])))\n"))
    net = CompactNet(task=Task.Classification, input_shape=TensorShape(3, 4, 4),
                     layers=(OperatorSpec(OpKind.Identity, 3, 3),
                             OperatorSpec(OpKind.ReLU, 3, 3)),
                     num_classes=2)
    assert dev.run(net, 2) == [2.0, 2.0]


def test_external_command_wrong_line_count_is_device_error(tmp_path):
    dev = _echo_device(tmp_path, "print(1.0)\n")
    net = CompactNet(task=Task.Classification, input_shape=TensorShape(3, 4, 4),
                     layers=(OperatorSpec(OpKind.Identity, 3, 3),),
                     num_classes=2)
    with pytest.raises(DeviceError):
        dev.run(net, 3)


def test_external_command_failure_is_device_error(tmp_path):
    dev = _echo_device(tmp_path, "import sys\nsys.exit(3)\n")
    net = CompactNet(task=Task.Classification, input_shape=TensorShape(3, 4, 4),
                     layers=(OperatorSpec(OpKind.Identity, 3, 3),),
                     num_classes=2)
    with pytest.raises(DeviceError):
        dev.run(net, 1)


NON_FINITE = ["nan", "inf", "1e400"]


@pytest.mark.parametrize("value", NON_FINITE)
def test_external_command_non_finite_latency_is_device_error(tmp_path, value):
    dev = _echo_device(tmp_path, f"print({value!r})\n")
    net = CompactNet(task=Task.Classification, input_shape=TensorShape(3, 4, 4),
                     layers=(OperatorSpec(OpKind.Identity, 3, 3),),
                     num_classes=2)
    with pytest.raises(DeviceError, match="device latency must be finite and >= 0"):
        dev.run(net, 1)


def test_lut_build_on_non_finite_device_keeps_partial_table(tmp_path, capsys):
    dev = tmp_path / "dev.json"
    dev.write_text(json.dumps({"type": "command", "command_template": "echo nan"}))
    out = tmp_path / "toy.lut.json"
    assert run_cli("lut", "build", "--net", "toy-classification", "--device", str(dev),
                   "--out", str(out), "--trials", "1") == 1
    partial = tmp_path / "toy.partial.lut.json"
    err = capsys.readouterr().err
    assert err.startswith("error: device latency must be finite and >= 0, got nan")
    assert str(partial) in err
    assert not out.exists()
    assert load_lut(partial).incomplete


@pytest.mark.parametrize("value", NON_FINITE)
def test_calibrate_non_finite_device_exits_1_and_writes_no_nan(tmp_path, value):
    lut = tmp_path / "toy.lut.json"
    assert run_cli("lut", "build", "--net", "toy-classification", "--out", str(lut)) == 0
    dev = tmp_path / "dev.json"
    dev.write_text(json.dumps({"type": "command", "command_template": f"echo {value}"}))
    prefix = tmp_path / "cal" / "c"
    proc = run_module("calibrate", "--net", "toy-classification", "--lut", str(lut),
                      "--device", str(dev), "--samples", "3", "--trials", "1",
                      "--out-prefix", str(prefix))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: device latency must be finite")
    assert "Traceback" not in proc.stderr
    assert not prefix.with_suffix(".json").exists()
    assert not prefix.with_suffix(".csv").exists()


def test_lut_build_keeps_partial_table_of_failed_profile(tmp_path, capsys):
    """A device that fails on its 4th call keeps what its first 3 calls measured:
    the stem Conv (its anchor, then the Conv) and the stage-0 Conv."""
    script = tmp_path / "dev.py"
    script.write_text(
        "import pathlib, sys\n"
        f"count = pathlib.Path({str(tmp_path / 'calls')!r})\n"
        "n = int(count.read_text()) + 1 if count.exists() else 1\n"
        "count.write_text(str(n))\n"
        "if n == 4:\n"
        "    sys.exit('device lost')\n"
        "for _ in range(int(sys.argv[2])):\n"
        "    print(0.5)\n")
    dev = tmp_path / "dev.json"
    dev.write_text(json.dumps({"type": "command", "command_template":
                               f"{sys.executable} {script} {{graph}} {{trials}}"}))
    out = tmp_path / "toy.lut.json"
    assert run_cli("lut", "build", "--net", "toy-classification", "--device", str(dev),
                   "--out", str(out), "--trials", "1") == 1
    partial = tmp_path / "toy.partial.lut.json"
    err = capsys.readouterr().err
    assert err.startswith("error: device command exited 1: device lost")
    assert str(partial) in err
    assert not out.exists()
    lut = load_lut(partial)
    assert lut.incomplete
    assert sorted(k for k in lut.entries if not k.startswith("Identity")) == [
        "Conv:k3:s1:e1:i16x8x8:o16", "Conv:k3:s1:e1:i3x8x8:o16"]


def _counting_device(tmp_path, fail_on: int) -> Path:
    """A command device config whose script answers 0.5 ms and fails on call `fail_on`."""
    script = tmp_path / "dev.py"
    script.write_text(
        "import pathlib, sys\n"
        f"count = pathlib.Path({str(tmp_path / 'calls')!r})\n"
        "n = int(count.read_text()) + 1 if count.exists() else 1\n"
        "count.write_text(str(n))\n"
        f"if n == {fail_on}:\n"
        "    sys.exit('device lost')\n"
        "for _ in range(int(sys.argv[2])):\n"
        "    print(0.5)\n")
    dev = tmp_path / "dev.json"
    dev.write_text(json.dumps({"type": "command", "command_template":
                               f"{sys.executable} {script} {{graph}} {{trials}}"}))
    return dev


def test_calibrate_keeps_pairs_measured_before_a_device_failure(tmp_path, capsys):
    lut = tmp_path / "toy.lut.json"
    assert run_cli("lut", "build", "--net", "toy-classification", "--out", str(lut)) == 0
    prefix = tmp_path / "cal" / "c"
    assert run_cli("calibrate", "--net", "toy-classification", "--lut", str(lut),
                   "--device", str(_counting_device(tmp_path, 3)), "--samples", "5",
                   "--trials", "1", "--out-prefix", str(prefix)) == 1
    partial = tmp_path / "cal" / "c.partial.csv"
    err = capsys.readouterr().err
    assert err.startswith("error: device command exited 1: device lost")
    assert f"the 2 networks measured so far are saved in {partial}" in err
    assert sorted(p.name for p in partial.parent.iterdir()) == ["c.partial.csv"]
    header, *rows = partial.read_text().splitlines()
    assert header == "predicted_ms,measured_ms"
    assert [float(r.split(",")[1]) for r in rows] == [0.5, 0.5]


def test_calibrate_appends_its_suffixes_to_a_dotted_prefix(tmp_path, capsys):
    """`cal.v2` and `cal.v3` are two prefixes, not two names for `cal.*`."""
    lut = tmp_path / "toy.lut.json"
    assert run_cli("lut", "build", "--net", "toy-classification", "--out", str(lut)) == 0
    out = tmp_path / "out"
    for version in ("v2", "v3"):
        assert run_cli("calibrate", "--net", "toy-classification", "--lut", str(lut),
                       "--samples", "3", "--out-prefix", str(out / f"cal.{version}")) == 0
    assert run_cli("calibrate", "--net", "toy-classification", "--lut", str(lut),
                   "--device", str(_counting_device(tmp_path, 2)), "--samples", "3",
                   "--trials", "1", "--out-prefix", str(out / "cal.v4")) == 1
    assert f"saved in {out / 'cal.v4.partial.csv'}" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [
        "cal.v2.csv", "cal.v2.json", "cal.v3.csv", "cal.v3.json", "cal.v4.partial.csv",
        "run_manifest.json"]


def test_device_traceback_is_quoted_by_its_last_line(tmp_path):
    """A device script that prints a traceback and exits 3 gives one `error:` line."""
    script = tmp_path / "dev.py"
    script.write_text(
        "import sys, traceback\n"
        "try:\n"
        "    raise RuntimeError('sensor offline')\n"
        "except RuntimeError:\n"
        "    traceback.print_exc()\n"
        "    sys.exit(3)\n")
    dev = tmp_path / "dev.json"
    dev.write_text(json.dumps({"type": "command", "command_template":
                               f"{sys.executable} {script} {{graph}} {{trials}}"}))
    out = tmp_path / "toy.lut.json"
    proc = run_module("lut", "build", "--net", "toy-classification", "--device", str(dev),
                      "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    partial = tmp_path / "toy.partial.lut.json"
    assert proc.stderr.splitlines() == [
        "error: device command exited 3: RuntimeError: sensor offline; the 0 entries "
        f"measured so far are saved in {partial}"]
    assert load_lut(partial).incomplete and not out.exists()


def test_device_error_line_is_cut_to_200_characters(tmp_path):
    dev = _echo_device(tmp_path, "import sys\nsys.exit('first\\n\\n' + 'x' * 300 + '  \\n')\n")
    net = CompactNet(task=Task.Classification, input_shape=TensorShape(3, 4, 4),
                     layers=(OperatorSpec(OpKind.Identity, 3, 3),), num_classes=2)
    with pytest.raises(DeviceError) as exc:
        dev.run(net, 1)
    assert str(exc.value) == "device command exited 1: " + "x" * 200


# ---------------------------------------------------------------------------
# output into folders that do not exist yet
# ---------------------------------------------------------------------------

# Each command's outputs, into folders that do not exist until the command writes them.
NEW_FOLDER_OUTPUTS = {
    "lut build": (["lut", "build", "--net", "toy-classification", "--out", "{tmp}/a/t.lut.json"],
                  ["a/run_manifest.json", "a/t.lut.json"]),
    "costmodel train": (["costmodel", "train", "--simulate", "60", "--epochs", "5",
                         "--save-records", "{tmp}/b/r.records.jsonl", "--out", "{tmp}/a/m.json"],
                        ["a/m.json", "a/run_manifest.json", "b/r.records.jsonl"]),
    "train-compact": (["train-compact", "--net", "{tmp}/c.net.json", "--steps", "2",
                       "--data-samples", "16", "--out", "{tmp}/a/b/w.ckpt.json"],
                      ["a/b/run_manifest.json", "a/b/w.ckpt.json"]),
}


@pytest.mark.parametrize("command", sorted(NEW_FOLDER_OUTPUTS))
def test_outputs_go_into_folders_made_when_written(command, tmp_path):
    argv, written = NEW_FOLDER_OUTPUTS[command]
    save_net(toy_classification_supernet().path([0, 0, 0]), tmp_path / "c.net.json")
    assert run_cli(*[a.format(tmp=tmp_path) for a in argv]) == 0
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
                  if p.is_file()) == sorted(written + ["c.net.json"])


def test_failed_profile_keeps_its_partial_table_in_a_folder_made_for_it(tmp_path, capsys):
    out = tmp_path / "gone" / "x.lut.json"
    assert run_cli("lut", "build", "--net", "toy-classification",
                   "--device", str(_counting_device(tmp_path, 4)), "--out", str(out),
                   "--trials", "1") == 1
    partial = tmp_path / "gone" / "x.partial.lut.json"
    err = capsys.readouterr().err
    assert err.startswith("error: device command exited 1: device lost")
    assert f"the 2 entries measured so far are saved in {partial}" in err
    assert [p.name for p in out.parent.iterdir()] == ["x.partial.lut.json"]
    assert load_lut(partial).incomplete


def _failed_save_error(err: str, what: str, path: Path) -> None:
    """One line: the device's failure first, then the save that failed."""
    assert err.startswith(f"error: device command exited 1: device lost; the {what} measured "
                          f"so far could not be saved in {path}: [Errno 17] File exists")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_lut_build_names_the_device_failure_when_its_partial_save_fails(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "t.lut.json"
    assert run_cli("lut", "build", "--net", "toy-classification",
                   "--device", str(_counting_device(tmp_path, 4)), "--out", str(out),
                   "--trials", "1") == 1
    _failed_save_error(capsys.readouterr().err, "2 entries",
                       tmp_path / "afile" / "t.partial.lut.json")


def test_calibrate_names_the_device_failure_when_its_partial_save_fails(tmp_path, capsys):
    lut = tmp_path / "toy.lut.json"
    assert run_cli("lut", "build", "--net", "toy-classification", "--out", str(lut)) == 0
    (tmp_path / "afile").write_text("")
    assert run_cli("calibrate", "--net", "toy-classification", "--lut", str(lut),
                   "--device", str(_counting_device(tmp_path, 3)), "--samples", "5",
                   "--trials", "1", "--out-prefix", str(tmp_path / "afile" / "c")) == 1
    _failed_save_error(capsys.readouterr().err, "2 networks",
                       tmp_path / "afile" / "c.partial.csv")


# ---------------------------------------------------------------------------
# full small pipeline
# ---------------------------------------------------------------------------

def test_small_pipeline_end_to_end(tmp_path):
    lut = tmp_path / "toy.lut.json"
    assert run_cli("lut", "build", "--net", "toy-classification",
                   "--out", str(lut)) == 0
    run_dir = tmp_path / "run"
    assert run_cli("search", "run", "--net", "toy-classification",
                   "--lut", str(lut), "--rounds", "3", "--seed", "0",
                   "--out-dir", str(run_dir), "--data-samples", "80") == 0
    assert (run_dir / "history.csv").exists()
    assert (run_dir / "arch.json").exists()
    compact = tmp_path / "compact.net.json"
    assert run_cli("derive", "--net", "toy-classification",
                   "--arch", str(run_dir / "arch.json"),
                   "--out", str(compact)) == 0
    ckpt = tmp_path / "w.ckpt.json"
    assert run_cli("train-compact", "--net", str(compact), "--steps", "20",
                   "--seed", "0", "--out", str(ckpt),
                   "--data-samples", "80") == 0
    metrics = tmp_path / "metrics.json"
    assert run_cli("eval", "--net", str(compact), "--checkpoint", str(ckpt),
                   "--lut", str(lut), "--out", str(metrics),
                   "--data-samples", "80") == 0
    doc = json.loads(metrics.read_text())
    assert 0.0 <= doc["test_accuracy"] <= 1.0
    assert doc["lut_latency_ms"] > 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["artifacts"]


def test_calibrate_and_report_emit_svg(tmp_path):
    lut = tmp_path / "toy.lut.json"
    run_cli("lut", "build", "--net", "toy-classification", "--out", str(lut))
    prefix = tmp_path / "cal" / "calib"
    assert run_cli("calibrate", "--net", "toy-classification",
                   "--lut", str(lut), "--samples", "5", "--seed", "0",
                   "--out-prefix", str(prefix)) == 0
    assert prefix.with_suffix(".csv").exists()
    rep = tmp_path / "rep"
    assert run_cli("report", "--manifest",
                   str(tmp_path / "cal" / "run_manifest.json"),
                   "--out-dir", str(rep)) == 0
    svg = (rep / "calibration_scatter.svg").read_text()
    assert svg.startswith("<svg")
    assert "circle" in svg


# Calibration CSVs whose manifest holds their correct hash, but whose rows are
# not all two finite numbers: each names the file and the line.
BAD_CALIBRATION_CSV = {
    "header-only": ("predicted_ms,measured_ms\n", 2),
    "row-not-a-number": ("predicted_ms,measured_ms\n1.0,2.0\nabc,1\n", 3),
    "row-one-column": ("predicted_ms,measured_ms\n1.0\n", 2),
}


@pytest.mark.parametrize("case", sorted(BAD_CALIBRATION_CSV))
def test_report_malformed_calibration_csv_exit_1_without_traceback(case, tmp_path):
    text, line = BAD_CALIBRATION_CSV[case]
    csv = tmp_path / "c.csv"
    csv.write_text(text)
    manifest = tmp_path / "run_manifest.json"
    manifest.write_text(json.dumps({"command": "calibrate", "artifacts": {
        "calibration_csv": {"path": str(csv), "sha256": content_hash(csv)}}}))
    proc = run_module("report", "--manifest", str(manifest), "--out-dir", str(tmp_path / "rep"))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"error: {csv}:{line}: ")
    assert "Traceback" not in proc.stderr


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_calibrate_zero_latency_device_reports_null_mape(tmp_path):
    """MAPE divides by the measured latency: a device that reports 0 ms gets a
    null MAPE with a note, in strict JSON, and no RuntimeWarning."""
    lut = tmp_path / "toy.lut.json"
    assert run_cli("lut", "build", "--net", "toy-classification", "--out", str(lut)) == 0
    dev = tmp_path / "dev.json"
    dev.write_text(json.dumps({"type": "command", "command_template": "echo 0"}))
    prefix = tmp_path / "cal" / "c"
    proc = run_module("--json", "calibrate", "--net", "toy-classification",
                      "--lut", str(lut), "--device", str(dev), "--samples", "3",
                      "--trials", "1", "--out-prefix", str(prefix))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    for doc in (_strict_json(proc.stdout), _strict_json(prefix.with_suffix(".json").read_text())):
        assert doc["mape_percent"] is None
        assert doc["pearson"] is None
        assert "MAPE undefined" in doc["note"]
