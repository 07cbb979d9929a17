import hashlib

import numpy as np
import pytest

from hwnas.datasets import (DatasetSpec, box_downsample,
                            generate_classification_dataset,
                            generate_sr_dataset, psnr, PSNR_CAP_DB)
from hwnas.graph import Task


def _cls_spec(**kw):
    base = dict(task=Task.Classification, num_samples=200, image_size=8,
                num_classes=4, seed=42)
    base.update(kw)
    return DatasetSpec(**base)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classification_deterministic():
    a = generate_classification_dataset(_cls_spec())
    b = generate_classification_dataset(_cls_spec())
    np.testing.assert_array_equal(a.train[0], b.train[0])
    np.testing.assert_array_equal(a.test[1], b.test[1])


def test_classification_shapes_and_split():
    ds = generate_classification_dataset(_cls_spec())
    assert ds.train[0].shape == (140, 3, 8, 8)
    assert ds.val[0].shape[0] == 30
    assert ds.test[0].shape[0] == 30


def test_labels_balanced_within_one():
    ds = generate_classification_dataset(_cls_spec())
    all_labels = np.concatenate([ds.train[1], ds.val[1], ds.test[1]])
    counts = np.bincount(all_labels, minlength=4)
    assert counts.max() - counts.min() <= 1


def test_linear_probe_reaches_100_percent():
    # two-class variant must be linearly separable
    ds = generate_classification_dataset(_cls_spec(num_classes=2))
    x = ds.train[0].reshape(ds.train[0].shape[0], -1)
    y = ds.train[1]
    # least-squares linear classifier as the oracle
    xb = np.hstack([x, np.ones((x.shape[0], 1))])
    t = np.where(y == 1, 1.0, -1.0)
    w, *_ = np.linalg.lstsq(xb, t, rcond=None)
    train_acc = np.mean((xb @ w > 0) == (t > 0))
    assert train_acc == 1.0
    xt = ds.test[0].reshape(ds.test[0].shape[0], -1)
    xtb = np.hstack([xt, np.ones((xt.shape[0], 1))])
    tt = np.where(ds.test[1] == 1, 1.0, -1.0)
    # least-squares is not max-margin; allow a little test-split slack
    assert np.mean((xtb @ w > 0) == (tt > 0)) >= 0.9


# ---------------------------------------------------------------------------
# super-resolution
# ---------------------------------------------------------------------------

def _sr_spec(**kw):
    base = dict(task=Task.SuperResolution, num_samples=40, image_size=16,
                sr_scale=2, seed=42)
    base.update(kw)
    return DatasetSpec(**base)


def test_sr_deterministic():
    a = generate_sr_dataset(_sr_spec())
    b = generate_sr_dataset(_sr_spec())
    np.testing.assert_array_equal(a.train[0], b.train[0])
    np.testing.assert_array_equal(a.train[1], b.train[1])


def test_sr_lr_is_exact_box_downsample():
    ds = generate_sr_dataset(_sr_spec())
    for split in (ds.train, ds.val, ds.test):
        lr, hr = split
        np.testing.assert_array_equal(lr, box_downsample(hr, 2))


def test_constant_image_downsamples_to_constant():
    hr = np.full((3, 8, 8), 0.25)
    lr = box_downsample(hr, 2)
    np.testing.assert_array_equal(lr, np.full((3, 4, 4), 0.25))
    # a nearest upsample of the constant recovers it exactly
    up = np.repeat(np.repeat(lr, 2, axis=-2), 2, axis=-1)
    assert psnr(up, hr).exact
    assert psnr(up, hr).db == PSNR_CAP_DB


# ---------------------------------------------------------------------------
# psnr
# ---------------------------------------------------------------------------

def test_psnr_exact_match_capped():
    x = np.linspace(0, 1, 48).reshape(3, 4, 4)
    res = psnr(x, x.copy())
    assert res.db == 99.0
    assert res.exact


def test_psnr_20db():
    target = np.zeros((1, 10, 10))
    pred = np.full_like(target, 0.1)  # MSE = 0.01
    assert psnr(pred, target).db == pytest.approx(20.0, abs=1e-9)


def test_psnr_40db():
    target = np.zeros((1, 10, 10))
    pred = np.full_like(target, 0.01)  # MSE = 1e-4
    assert psnr(pred, target).db == pytest.approx(40.0, abs=1e-9)


# ---------------------------------------------------------------------------
# bytes at a fixed seed
# ---------------------------------------------------------------------------

def _digest(ds):
    h = hashlib.sha256()
    for split in (ds.train, ds.val, ds.test):
        for a in split:
            h.update(f"{a.dtype}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# sha256 of _digest at _cls_spec() and _sr_spec()
CLS_SHA256 = "f30747e90ed21ba7f3fabd6ec3b776ee13f44d80d320d9e16f6db557b0365fad"
SR_SHA256 = "c24f85a0d86613934e912a17d6cf1042342fdd5e42f2190bad3a13c9b95cdbac"


def test_generated_bytes_are_pinned():
    """Every array both generators return, dtype and shape included, at a
    fixed seed: a change to how samples are drawn or stored shows here."""
    assert _digest(generate_classification_dataset(_cls_spec())) == CLS_SHA256
    assert _digest(generate_sr_dataset(_sr_spec())) == SR_SHA256


@pytest.mark.parametrize("generate, spec", [
    (generate_classification_dataset, _cls_spec), (generate_sr_dataset, _sr_spec)])
def test_each_split_owns_its_memory(generate, spec):
    """A split is not a view into one shuffled copy of the whole set, so a
    caller that keeps only the test split keeps only the test split's bytes."""
    ds = generate(spec())
    for name in ("train", "val", "test"):
        for a in getattr(ds, name):
            assert a.base is None, name


@pytest.mark.parametrize("names", [("train", "val"), ("train",), ("test",)])
def test_sr_renders_only_the_named_splits(names):
    """A split rendered alone, or with some of the others, holds the bytes it
    holds in the whole set, in arrays of its own; the splits not named are
    None."""
    whole, part = generate_sr_dataset(_sr_spec()), generate_sr_dataset(_sr_spec(), names)
    for name in ("train", "val", "test"):
        if name not in names:
            assert getattr(part, name) is None
            continue
        for got, ref in zip(getattr(part, name), getattr(whole, name)):
            assert got.base is None
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
