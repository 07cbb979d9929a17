"""Golden outputs of cost-model training: sha256 of the model file, of the
`--json` summary and of the loss curves for fixed-seed `costmodel train` runs,
and of the LUT one of those models predicts.

The trainer must do the same float operations on the same operands in the
same order, so any change to initialisation, the forward or backward pass,
the Adam update, the validation checkpoints or the snapshot choice fails
here. The model file stores every weight as a round-tripping float. The
250-epoch run passes ten validation checkpoints (`val_every` = 25).
"""

import hashlib

import numpy as np
import pytest

from hwnas import costmodel
from hwnas.cli import main
from hwnas.profiler import SimulatedVPU

ARGS = ["--simulate", "200", "--seed", "3"]

GOLDEN = {
    100: {
        "model": "99c9c164db96872573c0707219e688efee07f4291dd2bb2c5f9e7be1a05c4c44",
        "stdout": "ec894426ea3cc011955a95f5125a247b753fb099f2ff8307069657eb745fb02e",
    },
    250: {
        "model": "0e38f5cbcea6415ab97070cbdc2b727bcedeefd6e089f8110b40f5481093b539",
        "stdout": "14e646c53dce889f4843f790d9678c3aa1c2e87f278f96bcc5d69047c34ceeaf",
    },
}

# `costmodel eval --json` stdout: the 100-epoch model on 80 other records
GOLDEN_EVAL = "708673097e66518c22aa75683a81878d7c90162e39e4094072cd14a0171d51c3"

# `lut from-model` file bytes: the 100-epoch model predicting each space
# (toy-classification holds an Identity, which costs 0 ms without the model)
GOLDEN_LUT_FROM_MODEL = {
    "toy-sr": "621cb0a3faaeba141bdceda7e79297ba8ffd279ecccc4589789b832f612c4d87",
    "toy-classification": "a76e627e116bd4e11ce8d0154e017fa76834da7fa8d281b709550a10adb741d0",
}

# repr of (train_losses, val_losses) of the kept restart, 250 epochs
GOLDEN_CURVES = "9a16db5312304cfb673e243522e0d5f04739cc9351374dc9bd8d2327adc4628d"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("epochs", sorted(GOLDEN))
def test_costmodel_train_golden(epochs, tmp_path, capsys):
    out = tmp_path / "cost.model.json"
    assert main(["--json", "costmodel", "train", *ARGS, "--epochs", str(epochs),
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.replace(str(out), "{out}")
    got = {"model": _sha(out.read_bytes()), "stdout": _sha(stdout.encode())}
    assert got == GOLDEN[epochs]


def test_costmodel_eval_golden(tmp_path, capsys):
    model, records = tmp_path / "cost.model.json", tmp_path / "eval.records.jsonl"
    assert main(["costmodel", "train", *ARGS, "--epochs", "100", "--out", str(model)]) == 0
    costmodel.save_records(costmodel.simulate_records(SimulatedVPU(), 80, seed=11), records)
    capsys.readouterr()
    assert main(["--json", "costmodel", "eval", "--model", str(model),
                 "--records", str(records)]) == 0
    assert _sha(capsys.readouterr().out.encode()) == GOLDEN_EVAL


@pytest.mark.parametrize("net", sorted(GOLDEN_LUT_FROM_MODEL))
def test_lut_from_model_golden(net, tmp_path):
    model, lut = tmp_path / "cost.model.json", tmp_path / "predicted.lut.json"
    assert main(["costmodel", "train", *ARGS, "--epochs", "100", "--out", str(model)]) == 0
    assert main(["lut", "from-model", "--net", net, "--model", str(model),
                 "--out", str(lut)]) == 0
    assert _sha(lut.read_bytes()) == GOLDEN_LUT_FROM_MODEL[net]


def test_costmodel_loss_curves_golden():
    records = costmodel.simulate_records(SimulatedVPU(), 200, seed=3)
    _, report = costmodel.train_cost_model(
        records, costmodel.CostModelConfig(epochs=250, seed=3))
    assert len(report.train_losses) == len(report.val_losses) == 10
    curves = repr((report.train_losses, report.val_losses))
    assert _sha(curves.encode()) == GOLDEN_CURVES


def test_costmodel_diverging_lr_message(tmp_path, capsys):
    out = tmp_path / "cost.model.json"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["costmodel", "train", *ARGS, "--epochs", "100", "--lr", "1e60",
                   "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: cost-model loss diverged at epoch 2\n"
    assert not out.exists()
