"""Golden outputs of retraining: sha256 of `train-compact` checkpoints and
`eval` metrics for fixed derived nets.

`tests/test_golden.py` pins the search loop; this file pins the compact-net
training path (`CompactNetModel.forward`/`backward`, `loss_ce`/`loss_mse`,
`sgd_step`) and evaluation. The checkpoint stores every weight as a
round-tripping float, so any change to a single gradient bit fails here.
"""

import json

import pytest

from hwnas.cli import content_hash, main

# (space, per-stage alphas, dataset options shared by train-compact and eval)
NETS = {
    # Conv stem, Conv stage, DWConv stage, Identity stage, Linear head
    "cls-conv-dw-id": ("toy-classification",
                       [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                       ["--data-samples", "48"]),
    # Conv k3, LeakyReLU, nearest upsample with a learned projection
    "sr-k3-leaky-nearest": ("toy-sr",
                            [[0.0, 1.0, 0.0], [0.0, 1.0], [1.0, 0.0, 0.0]],
                            ["--data-samples", "12", "--data-size", "32"]),
    # PointwiseConv, ReLU, bilinear upsample with a learned projection
    "sr-pw-relu-bilinear": ("toy-sr",
                            [[1.0, 0.0, 0.0], [1.0, 0.0], [0.0, 1.0, 0.0]],
                            ["--data-samples", "12", "--data-size", "32"]),
}

GOLDEN = {
    "cls-conv-dw-id": {
        "checkpoint": "b30d235458d93679c4cd5c4ecf419606d0322b93cfc1ab7cecf458a4cbd505e7",
        "metrics": "05037f506901beaa2e7ef4437527c7e094f04be2a7f55b75092ca51e2cd13eab",
    },
    "sr-k3-leaky-nearest": {
        "checkpoint": "4ced9495bd231ee604fb31e38a79001a9f5f5e267561a769ade7a4bf343baed9",
        "metrics": "65dbfbccc5c24be235700657758ecc74e8c857b296feef47c114b35180115a87",
    },
    "sr-pw-relu-bilinear": {
        "checkpoint": "f4e187ed254056fb190cc3b72c45b3d03916b9cb0e2d18872f679e996355b70e",
        "metrics": "a003cd7ecaa8535d52cc548081df861b73b5f32bb0b78f023d3cd1702b805248",
    },
}


@pytest.mark.parametrize("case", sorted(NETS))
def test_train_compact_eval_golden(case, tmp_path):
    space, alphas, data = NETS[case]
    arch, compact = tmp_path / "arch.json", tmp_path / "compact.net.json"
    ckpt, metrics = tmp_path / "w.ckpt.json", tmp_path / "metrics.json"
    arch.write_text(json.dumps({"alphas": alphas}))
    assert main(["derive", "--net", space, "--arch", str(arch),
                 "--out", str(compact)]) == 0
    assert main(["train-compact", "--net", str(compact), "--steps", "6",
                 "--batch-size", "4", "--lr", "0.01", "--seed", "3",
                 "--out", str(ckpt), *data]) == 0
    assert main(["eval", "--net", str(compact), "--checkpoint", str(ckpt),
                 "--seed", "3", "--out", str(metrics), *data]) == 0
    got = {"checkpoint": content_hash(ckpt), "metrics": content_hash(metrics)}
    assert got == GOLDEN[case]
