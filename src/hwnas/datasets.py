"""Deterministic synthetic datasets and image metrics for the desk-scale tasks.

Classification images are class-dependent oriented sinusoid patterns plus
seeded noise; super-resolution pairs are synthetic textures with an exact
2x box-filter downsampling. Generation is bitwise-reproducible per seed and
splits are balanced 70/15/15; each split's inputs and targets are arrays of
their own, not views into one shuffled copy of the whole set. The SR
generator renders only the splits its caller asks for, straight into each
split's own arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import Task
from .jsonio import bounded, check_fields, check_number
from .nncore import loss_mse

PSNR_CAP_DB = 99.0
MIN_SAMPLES = 7  # the fewest samples whose 70/15/15 split leaves no part empty
MIN_CLASSES = 2
SPLITS = ("train", "val", "test")
# The uniform draws of one SR texture wave: fx, fy, three channel phases, amp
_WAVE_LOW = (0.5, 0.5, 0.0, 0.0, 0.0, 0.1)
_WAVE_HIGH = (4.0, 4.0, 2 * math.pi, 2 * math.pi, 2 * math.pi, 0.4)
_WAVES = 4


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


def _split_indices(n, rng):
    """{split name: the indices of its samples} of n samples shuffled into
    70/15/15 parts."""
    n_train = int(n * 0.70)
    n_val = int(n * 0.15)
    return dict(zip(SPLITS, np.split(rng.permutation(n), [n_train, n_train + n_val])))


def _split_703015(x, y, rng):
    """Shuffle into 70/15/15 parts, each gathered into arrays of its own, so a
    caller that keeps one part does not keep the whole set alive."""
    return Dataset(**{name: (x[i], y[i]) for name, i in _split_indices(len(x), rng).items()})


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
    x = np.empty((spec.num_samples,) + templates[0].shape)
    y = np.arange(spec.num_samples, dtype=np.int64) % spec.num_classes
    for i, cls in enumerate(y):
        amp = rng.uniform(0.8, 1.2)
        np.multiply(amp, templates[cls], out=x[i])
        x[i] += spec.noise * rng.standard_normal(templates[cls].shape)
    return _split_703015(x, y, rng)


def box_downsample(hr: np.ndarray, scale: int) -> np.ndarray:
    """Exact box-filter downsampling over [.., C, H, W]."""
    *lead, c, h, w = hr.shape
    return hr.reshape(*lead, c, h // scale, scale, w // scale, scale).mean(axis=(-3, -1))


def generate_sr_dataset(spec: DatasetSpec, splits=SPLITS) -> Dataset:
    """LR/HR texture pairs; LR is exactly box_downsample(HR, sr_scale).

    Only the named splits are rendered; the others are None. Every sample's
    wave parameters are drawn first, then the split permutation, so a split
    holds the same bytes whichever splits are rendered with it."""
    rng = np.random.default_rng(spec.seed)
    hr_size = spec.image_size * spec.sr_scale
    yy, xx = np.meshgrid(np.arange(hr_size), np.arange(hr_size), indexing="ij")
    waves = rng.uniform(_WAVE_LOW, _WAVE_HIGH, size=(spec.num_samples, _WAVES, len(_WAVE_LOW)))
    parts = dict.fromkeys(SPLITS)
    for name, index in _split_indices(spec.num_samples, rng).items():
        if name not in splits:
            continue
        hr = np.empty((len(index), 3, hr_size, hr_size))
        lr = np.empty((len(index), 3, spec.image_size, spec.image_size))
        for img, small, sample in zip(hr, lr, waves[index]):
            img[...] = 0.0
            for fx, fy, *phase, amp in sample:
                wave = 2 * math.pi * (fx * xx + fy * yy) / hr_size
                img += amp * np.sin(wave[None, :, :] + np.array(phase)[:, None, None])
            img[...] = (img - img.min()) / max(img.max() - img.min(), 1e-9)
            small[...] = box_downsample(img, spec.sr_scale)
        parts[name] = (lr, hr)
    return Dataset(**parts)


class PsnrResult(NamedTuple):
    db: float
    exact: bool


def psnr(pred: np.ndarray, target: np.ndarray, peak: float = 1.0) -> PsnrResult:
    """10*log10(peak^2 / MSE); exact matches are capped at 99 dB and flagged."""
    mse = loss_mse(pred, target)[0]
    check_number(peak, "> 0", "peak")
    if mse == 0.0:
        return PsnrResult(PSNR_CAP_DB, True)
    return PsnrResult(min(10.0 * math.log10(peak ** 2 / mse), PSNR_CAP_DB), False)
