"""Desk-scale overfitting demo.

A linear softmax classifier is trained on synthetic spectrogram-like data
with a deliberately small training split, so it overfits.  Re-masking the
training examples every epoch shrinks the final train/dev NLL gap; dev
evaluation always runs on clean data.  This is a proxy experiment: the claim
under test is directional (masking reduces the generalization gap), not any
absolute loss value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DivergenceError, EmptyInputError
from .features import FeatureMatrix
from .masking import AugmentPolicy, augment
from .rng import RngState, derive_utterance_seed, uniform
from .stats import accumulate_stats, standardize

_GRID = 2**53  # uniform grid for Box-Muller; 2^53 divides 2^64, so no rejection


@dataclass(frozen=True)
class DemoParams:
    """Synthetic dataset shape: one channel template per class plus Gaussian noise."""

    templates: np.ndarray
    noise_std: float
    num_frames: int
    train_size: int
    dev_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "templates", np.asarray(self.templates, dtype=np.float64))
        if self.templates.ndim != 2:
            raise ValueError("templates must be a K x num_channels matrix")
        if self.num_classes < 2 or self.num_channels < 2:
            raise ValueError(f"need K >= 2 and num_channels >= 2, got ({self.num_classes}, {self.num_channels})")
        if self.num_frames < 4:
            raise ValueError(f"num_frames must be >= 4, got {self.num_frames}")
        if self.noise_std <= 0:
            raise ValueError(f"noise_std must be positive, got {self.noise_std}")
        if self.train_size < 1 or self.dev_size < 1:
            raise ValueError("train_size and dev_size must be >= 1")

    @property
    def num_classes(self) -> int:
        return self.templates.shape[0]

    @property
    def num_channels(self) -> int:
        return self.templates.shape[1]


@dataclass(frozen=True)
class ToyExample:
    example_id: str
    features: FeatureMatrix
    label: int


@dataclass(frozen=True)
class SyntheticDataset:
    params: DemoParams
    train: tuple[ToyExample, ...]
    dev: tuple[ToyExample, ...]


@dataclass
class ToyModel:
    """Linear softmax classifier over time-pooled channels."""

    weights: np.ndarray  # K x num_channels
    bias: np.ndarray  # K


@dataclass(frozen=True)
class LearningCurve:
    train_nll: tuple[float, ...]
    dev_nll: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.train_nll) != len(self.dev_nll):
            raise ValueError("train and dev curves must have equal length")

    @property
    def num_epochs(self) -> int:
        return len(self.train_nll)

    @property
    def final_gap(self) -> float:
        return self.dev_nll[-1] - self.train_nll[-1]

    def to_csv(self) -> str:
        lines = ["epoch,train_nll,dev_nll"]
        for epoch, (train, dev) in enumerate(zip(self.train_nll, self.dev_nll), start=1):
            lines.append(f"{epoch},{train!r},{dev!r}")
        return "\n".join(lines) + "\n"


def gaussian(rng: RngState, n: int) -> tuple[np.ndarray, RngState]:
    """n standard normals via Box-Muller over grid-uniform draws in (0, 1)."""
    values = np.empty(n)
    for i in range(0, n, 2):
        a, rng = uniform(rng, _GRID)
        b, rng = uniform(rng, _GRID)
        u1 = (a + 0.5) / _GRID
        u2 = (b + 0.5) / _GRID
        radius = math.sqrt(-2.0 * math.log(u1))
        values[i] = radius * math.cos(2.0 * math.pi * u2)
        if i + 1 < n:
            values[i + 1] = radius * math.sin(2.0 * math.pi * u2)
    return values, rng


def _make_split(name: str, size: int, params: DemoParams, seed: int) -> list[ToyExample]:
    rng = RngState(derive_utterance_seed(seed, name))
    examples: list[ToyExample] = []
    for i in range(size):
        label = i % params.num_classes  # round-robin keeps labels balanced within 1
        noise, rng = gaussian(rng, params.num_frames * params.num_channels)
        data = params.templates[label][None, :] + params.noise_std * noise.reshape(
            params.num_frames, params.num_channels
        )
        features = FeatureMatrix(data=data, frame_shift_ms=10.0, kind="log_mel")
        examples.append(ToyExample(example_id=f"{name}:{i}", features=features, label=label))
    return examples


def generate_dataset(params: DemoParams, seed: int) -> SyntheticDataset:
    """Build train/dev splits from disjoint substreams, standardized with train stats."""
    train = _make_split("train", params.train_size, params, seed)
    dev = _make_split("dev", params.dev_size, params, seed)
    stats = accumulate_stats(ex.features for ex in train)
    train = [ToyExample(ex.example_id, standardize(ex.features, stats), ex.label) for ex in train]
    dev = [ToyExample(ex.example_id, standardize(ex.features, stats), ex.label) for ex in dev]
    return SyntheticDataset(params=params, train=tuple(train), dev=tuple(dev))


def init_model(num_classes: int, num_channels: int) -> ToyModel:
    return ToyModel(weights=np.zeros((num_classes, num_channels)), bias=np.zeros(num_classes))


def _pool(features: FeatureMatrix) -> np.ndarray:
    return features.data.mean(axis=0)


def _batch_probs(model: ToyModel, pooled: np.ndarray) -> np.ndarray:
    logits = pooled @ model.weights.T + model.bias
    logits = logits - logits.max(axis=1, keepdims=True)  # shift-invariant, overflow-safe
    exp = np.exp(logits)
    return exp / exp.sum(axis=1, keepdims=True)


def forward_nll(model: ToyModel, features: FeatureMatrix, label: int) -> tuple[float, np.ndarray]:
    """NLL in nats and the full softmax probability vector for one example."""
    probs = _batch_probs(model, _pool(features)[None, :])[0]
    with np.errstate(divide="ignore"):  # log(0) = -inf feeds the divergence check
        return float(-np.log(probs[label])), probs


def gradient(model: ToyModel, batch: Sequence[tuple[FeatureMatrix, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy gradient over the batch: ((p - onehot) outer pooled, p - onehot)."""
    if not batch:
        raise EmptyInputError("gradient needs a non-empty batch")
    pooled = np.stack([_pool(features) for features, _ in batch])
    labels = np.array([label for _, label in batch])
    return _pooled_gradient(_batch_probs(model, pooled), pooled, labels)


def _pooled_gradient(probs: np.ndarray, pooled: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`gradient` from the batch's softmax probabilities, pooled rows and labels."""
    diff = probs.copy()
    diff[np.arange(labels.shape[0]), labels] -= 1.0
    return diff.T @ pooled / labels.shape[0], diff.mean(axis=0)


def _mean_nll(probs: np.ndarray, labels: np.ndarray) -> float:
    with np.errstate(divide="ignore"):  # log(0) = -inf feeds the divergence check
        return float(-np.log(probs[np.arange(labels.shape[0]), labels]).mean())


def check_training_values(epochs: int, lr: float) -> None:
    """ConfigError unless epochs >= 1 and lr is finite and >= 0."""
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    if not (math.isfinite(lr) and lr >= 0):
        raise ConfigError(f"lr must be finite and >= 0, got {lr}")


def train(
    dataset: SyntheticDataset,
    policy: AugmentPolicy,
    epochs: int,
    lr: float,
    seed: int,
) -> LearningCurve:
    """Full-batch gradient descent; metrics are recorded before each step.

    Unless the policy is the identity, every training example is re-masked
    each epoch from an RNG state derived from (seed, "id:epoch"); train NLL
    is measured on that masked batch.  Dev NLL always uses the clean dev split.
    """
    check_training_values(epochs, lr)
    model = init_model(dataset.params.num_classes, dataset.params.num_channels)
    clean_pooled = np.stack([_pool(ex.features) for ex in dataset.train])
    train_labels = np.array([ex.label for ex in dataset.train])
    dev_pooled = np.stack([_pool(ex.features) for ex in dataset.dev])
    dev_labels = np.array([ex.label for ex in dataset.dev])

    train_curve: list[float] = []
    dev_curve: list[float] = []
    for epoch in range(1, epochs + 1):
        if policy.is_identity:
            pooled = clean_pooled
        else:
            rows = []
            for ex in dataset.train:
                rng = RngState(derive_utterance_seed(seed, f"{ex.example_id}:{epoch}"))
                masked, _, _ = augment(ex.features, policy, rng)
                rows.append(_pool(masked))
            pooled = np.stack(rows)
        probs = _batch_probs(model, pooled)
        train_nll = _mean_nll(probs, train_labels)
        dev_nll = _mean_nll(_batch_probs(model, dev_pooled), dev_labels)
        if not (math.isfinite(train_nll) and math.isfinite(dev_nll)):
            raise DivergenceError(
                f"training diverged at epoch {epoch}: train_nll={train_nll}, dev_nll={dev_nll}"
            )
        train_curve.append(train_nll)
        dev_curve.append(dev_nll)
        grad_weights, grad_bias = _pooled_gradient(probs, pooled, train_labels)
        model.weights -= lr * grad_weights
        model.bias -= lr * grad_bias
    return LearningCurve(train_nll=tuple(train_curve), dev_nll=tuple(dev_curve))


def default_params() -> DemoParams:
    """Shipped demo dataset: 3 one-hot class templates over 16 channels, small train split."""
    templates = np.zeros((3, 16))
    templates[np.arange(3), np.arange(3)] = 1.0
    return DemoParams(templates=templates, noise_std=1.5, num_frames=12, train_size=32, dev_size=512)


#: Shipped demo policy: short masks sized for the 12x16 synthetic matrices.
DEFAULT_DEMO_POLICY = AugmentPolicy(max_freq_width=3, num_freq_masks=1, max_time_width=3, num_time_masks=2)
DEFAULT_DEMO_EPOCHS = 200
DEFAULT_DEMO_LR = 0.5
DEFAULT_DEMO_SEED = 20260814
