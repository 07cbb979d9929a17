"""Deterministic synthetic datasets and image metrics for the desk-scale tasks.

Classification images are class-dependent oriented sinusoid patterns plus
seeded noise; super-resolution pairs are synthetic textures with an exact
2x box-filter downsampling. Generation is bitwise-reproducible per seed and
splits are balanced 70/15/15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatch
from .graph import Task
from .jsonio import bounded, check_fields, check_number

PSNR_CAP_DB = 99.0
MIN_SAMPLES = 7  # the fewest samples whose 70/15/15 split leaves no part empty
MIN_CLASSES = 2


@dataclass(frozen=True)
class DatasetSpec:
    task: Task
    num_samples: int = bounded(f">= {MIN_SAMPLES}")
    image_size: int = bounded(">= 1")
    num_classes: int = 0
    sr_scale: int = 0
    seed: int = bounded(">= 0", 0)
    noise: float = bounded(">= 0", 0.15)

    def __post_init__(self):
        object.__setattr__(self, "task", Task(self.task))
        check_fields(self)
        if self.task is Task.Classification:
            check_number(self.num_classes, f">= {MIN_CLASSES}", "num_classes")
        if self.task is Task.SuperResolution and self.sr_scale != 2:
            raise ValueError("sr_scale must be 2")


@dataclass(frozen=True)
class Dataset:
    train: tuple
    val: tuple
    test: tuple


def _split_703015(x, y, rng):
    n = x.shape[0]
    order = rng.permutation(n)
    x, y = x[order], y[order]
    n_train = int(n * 0.70)
    n_val = int(n * 0.15)
    return Dataset(
        train=(x[:n_train], y[:n_train]),
        val=(x[n_train:n_train + n_val], y[n_train:n_train + n_val]),
        test=(x[n_train + n_val:], y[n_train + n_val:]))


def generate_classification_dataset(spec: DatasetSpec) -> Dataset:
    """Oriented-pattern classification images, balanced within +-1 per class."""
    rng = np.random.default_rng(spec.seed)
    s = spec.image_size
    yy, xx = np.meshgrid(np.arange(s), np.arange(s), indexing="ij")
    # One fixed oriented-grating template per class; samples vary only by
    # amplitude jitter and additive noise, so the task is linearly separable
    # at low noise.
    templates = []
    for cls in range(spec.num_classes):
        theta = math.pi * cls / spec.num_classes
        freq = 2.0 * (1 + cls % 2)
        base = np.sin(2 * math.pi * freq * (xx * math.cos(theta) + yy * math.sin(theta)) / s)
        templates.append(np.stack([base, np.roll(base, 1, axis=0), np.roll(base, 1, axis=1)]))
    images, labels = [], []
    for i in range(spec.num_samples):
        cls = i % spec.num_classes
        amp = rng.uniform(0.8, 1.2)
        img = amp * templates[cls] + spec.noise * rng.standard_normal(templates[cls].shape)
        images.append(img)
        labels.append(cls)
    x = np.asarray(images, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    return _split_703015(x, y, rng)


def box_downsample(hr: np.ndarray, scale: int) -> np.ndarray:
    """Exact box-filter downsampling over [.., C, H, W]."""
    *lead, c, h, w = hr.shape
    return hr.reshape(*lead, c, h // scale, scale, w // scale, scale).mean(axis=(-3, -1))


def generate_sr_dataset(spec: DatasetSpec) -> Dataset:
    """LR/HR texture pairs; LR is exactly box_downsample(HR, sr_scale)."""
    rng = np.random.default_rng(spec.seed)
    hr_size = spec.image_size * spec.sr_scale
    yy, xx = np.meshgrid(np.arange(hr_size), np.arange(hr_size), indexing="ij")
    lr_list, hr_list = [], []
    for _ in range(spec.num_samples):
        img = np.zeros((3, hr_size, hr_size))
        for _ in range(4):
            fx, fy = rng.uniform(0.5, 4.0, size=2)
            phase = rng.uniform(0, 2 * math.pi, size=3)
            amp = rng.uniform(0.1, 0.4)
            wave = 2 * math.pi * (fx * xx + fy * yy) / hr_size
            img += amp * np.sin(wave[None, :, :] + phase[:, None, None])
        img = (img - img.min()) / max(img.max() - img.min(), 1e-9)
        hr_list.append(img)
        lr_list.append(box_downsample(img, spec.sr_scale))
    hr = np.asarray(hr_list, dtype=np.float64)
    lr = np.asarray(lr_list, dtype=np.float64)
    return _split_703015(lr, hr, rng)


class PsnrResult(NamedTuple):
    db: float
    exact: bool


def psnr(pred: np.ndarray, target: np.ndarray, peak: float = 1.0) -> PsnrResult:
    """10*log10(peak^2 / MSE); exact matches are capped at 99 dB and flagged."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"pred {pred.shape} vs target {target.shape}")
    check_number(peak, "> 0", "peak")
    mse = float(np.mean((pred - target) ** 2))
    if mse == 0.0:
        return PsnrResult(PSNR_CAP_DB, True)
    return PsnrResult(min(10.0 * math.log10(peak ** 2 / mse), PSNR_CAP_DB), False)
