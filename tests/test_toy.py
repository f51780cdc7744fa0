"""Synthetic dataset, toy classifier, gradient correctness, and training."""

from __future__ import annotations

import math

import numpy as np
import pytest

from specmask.errors import ConfigError, DivergenceError, EmptyInputError
from specmask.features import FeatureMatrix
from specmask.masking import POLICY_PRESETS, AugmentPolicy
from specmask.rng import RngState
from specmask.toy import (
    DEFAULT_DEMO_LR,
    DEFAULT_DEMO_POLICY,
    DEFAULT_DEMO_SEED,
    DemoParams,
    LearningCurve,
    ToyModel,
    default_params,
    forward_nll,
    gaussian,
    generate_dataset,
    gradient,
    init_model,
    train,
)


def small_params(**overrides) -> DemoParams:
    defaults = dict(
        templates=np.eye(3, 4),
        noise_std=0.5,
        num_frames=6,
        train_size=9,
        dev_size=12,
    )
    defaults.update(overrides)
    return DemoParams(**defaults)


# ------------------------------------------------------------------ dataset


def test_gaussian_moments_and_determinism():
    values, _ = gaussian(RngState(42), 100_000)
    assert abs(values.mean()) < 0.02
    assert abs(values.std() - 1.0) < 0.02
    again, _ = gaussian(RngState(42), 100_000)
    assert np.array_equal(values, again)
    odd, _ = gaussian(RngState(1), 7)
    assert odd.shape == (7,)


def test_dataset_determinism():
    a = generate_dataset(small_params(), 5)
    b = generate_dataset(small_params(), 5)
    for ex_a, ex_b in zip(a.train + a.dev, b.train + b.dev):
        assert ex_a.example_id == ex_b.example_id
        assert ex_a.label == ex_b.label
        assert ex_a.features.data.tobytes() == ex_b.features.data.tobytes()
    c = generate_dataset(small_params(), 6)
    assert a.train[0].features.data.tobytes() != c.train[0].features.data.tobytes()


def test_labels_balanced_round_robin():
    ds = generate_dataset(small_params(train_size=10, dev_size=11), 0)
    for split in (ds.train, ds.dev):
        counts = np.bincount([ex.label for ex in split], minlength=3)
        assert counts.max() - counts.min() <= 1


def test_train_dev_use_disjoint_substreams():
    ds = generate_dataset(small_params(train_size=4, dev_size=4), 3)
    train_bytes = {ex.features.data.tobytes() for ex in ds.train}
    dev_bytes = {ex.features.data.tobytes() for ex in ds.dev}
    assert not train_bytes & dev_bytes


def test_low_noise_is_separable_by_nearest_centroid():
    ds = generate_dataset(small_params(noise_std=1e-6, train_size=12), 1)
    pooled = np.stack([ex.features.data.mean(axis=0) for ex in ds.train])
    labels = np.array([ex.label for ex in ds.train])
    centroids = np.stack([pooled[labels == k].mean(axis=0) for k in range(3)])
    predicted = np.argmin(((pooled[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2), axis=1)
    assert np.array_equal(predicted, labels)


def test_dataset_is_standardized_with_train_stats():
    ds = generate_dataset(small_params(train_size=30), 2)
    stacked = np.concatenate([ex.features.data for ex in ds.train])
    assert np.all(np.abs(stacked.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(stacked.var(axis=0) - 1.0) < 1e-6)
    assert ds.train[0].features.kind == "standardized_log_mel"


def test_params_validation():
    with pytest.raises(ValueError):
        small_params(templates=np.eye(1, 4))  # K < 2
    with pytest.raises(ValueError):
        small_params(num_frames=3)
    with pytest.raises(ValueError):
        small_params(noise_std=0.0)
    with pytest.raises(ValueError):
        small_params(train_size=0)


# ------------------------------------------------------------ forward + grad


def fm(data: np.ndarray) -> FeatureMatrix:
    return FeatureMatrix(data=data, frame_shift_ms=10.0, kind="standardized_log_mel")


def test_zero_model_is_uniform():
    model = init_model(4, 6)
    nll, probs = forward_nll(model, fm(np.ones((5, 6))), 2)
    assert np.allclose(probs, 0.25, atol=1e-15)
    assert nll == pytest.approx(math.log(4), abs=1e-12)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(3)
    model = ToyModel(weights=rng.normal(size=(5, 8)), bias=rng.normal(size=5))
    _, probs = forward_nll(model, fm(rng.normal(size=(4, 8))), 0)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert np.all(probs > 0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(4)
    weights = rng.normal(size=(3, 5))
    bias = rng.normal(size=3)
    example = fm(rng.normal(size=(6, 5)))
    _, probs_a = forward_nll(ToyModel(weights, bias), example, 1)
    _, probs_b = forward_nll(ToyModel(weights, bias + 7.5), example, 1)
    assert np.allclose(probs_a, probs_b, atol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    model = ToyModel(weights=rng.normal(size=(3, 4)) * 0.3, bias=rng.normal(size=3) * 0.3)
    batch = [(fm(rng.normal(size=(5, 4))), int(rng.integers(0, 3))) for _ in range(6)]
    dw, db = gradient(model, batch)

    def batch_loss(weights, bias):
        probe = ToyModel(weights=weights, bias=bias)
        return sum(forward_nll(probe, features, label)[0] for features, label in batch) / len(batch)

    step = 1e-5
    for k in range(3):
        for c in range(4):
            w_plus = model.weights.copy()
            w_minus = model.weights.copy()
            w_plus[k, c] += step
            w_minus[k, c] -= step
            numeric = (batch_loss(w_plus, model.bias) - batch_loss(w_minus, model.bias)) / (2 * step)
            assert abs(dw[k, c] - numeric) / max(abs(numeric), 1e-8) < 1e-4
    for k in range(3):
        b_plus = model.bias.copy()
        b_minus = model.bias.copy()
        b_plus[k] += step
        b_minus[k] -= step
        numeric = (batch_loss(model.weights, b_plus) - batch_loss(model.weights, b_minus)) / (2 * step)
        assert abs(db[k] - numeric) / max(abs(numeric), 1e-8) < 1e-4


def test_confident_correct_prediction_has_tiny_gradient():
    features = fm(np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)))
    weights = np.zeros((3, 4))
    weights[0, 0] = 50.0  # class 0 hugely favored on the active channel
    model = ToyModel(weights=weights, bias=np.zeros(3))
    dw, db = gradient(model, [(features, 0)])
    assert np.linalg.norm(dw) < 1e-8
    assert np.linalg.norm(db) < 1e-8


def test_gradient_linearity():
    rng = np.random.default_rng(6)
    model = ToyModel(weights=rng.normal(size=(3, 4)), bias=rng.normal(size=3))
    batch = [(fm(rng.normal(size=(4, 4))), int(rng.integers(0, 3))) for _ in range(5)]
    dw_full, db_full = gradient(model, batch)
    dw_sum = np.zeros_like(dw_full)
    db_sum = np.zeros_like(db_full)
    for item in batch:
        dw_i, db_i = gradient(model, [item])
        dw_sum += dw_i / len(batch)
        db_sum += db_i / len(batch)
    assert np.allclose(dw_full, dw_sum, atol=1e-12)
    assert np.allclose(db_full, db_sum, atol=1e-12)


def test_gradient_rejects_empty_batch():
    with pytest.raises(EmptyInputError):
        gradient(init_model(3, 4), [])


# ----------------------------------------------------------------- training


def test_lr_zero_flat_curve_at_log_k():
    ds = generate_dataset(small_params(), 1)
    curve = train(ds, POLICY_PRESETS["none"], epochs=5, lr=0.0, seed=0)
    assert curve.num_epochs == 5
    for t, d in zip(curve.train_nll, curve.dev_nll):
        assert t == pytest.approx(math.log(3), abs=1e-12)
        assert d == pytest.approx(math.log(3), abs=1e-12)


def test_training_determinism():
    ds = generate_dataset(small_params(), 2)
    a = train(ds, DEFAULT_DEMO_POLICY, epochs=20, lr=0.3, seed=11)
    b = train(ds, DEFAULT_DEMO_POLICY, epochs=20, lr=0.3, seed=11)
    assert a == b
    c = train(ds, DEFAULT_DEMO_POLICY, epochs=20, lr=0.3, seed=12)
    assert a != c


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_u64_is_refused(seed):
    with pytest.raises(ConfigError, match="seed"):
        generate_dataset(small_params(), seed)
    ds = generate_dataset(small_params(), 2)
    with pytest.raises(ConfigError, match="seed"):
        train(ds, DEFAULT_DEMO_POLICY, epochs=1, lr=0.3, seed=seed)


def test_policy_none_ignores_mask_seed():
    ds = generate_dataset(small_params(), 3)
    a = train(ds, POLICY_PRESETS["none"], epochs=10, lr=0.3, seed=1)
    b = train(ds, POLICY_PRESETS["none"], epochs=10, lr=0.3, seed=999)
    assert a == b
    assert train(ds, None, epochs=10, lr=0.3, seed=5) == a


def test_dev_is_never_masked():
    # replay epoch 1 by hand: masked gradient step from the zero-init model,
    # then a clean-dev evaluation must reproduce the recorded dev_nll[1]
    from specmask.masking import apply_masks, sample_policy_masks
    from specmask.rng import derive_utterance_seed

    ds = generate_dataset(small_params(), 4)
    policy = AugmentPolicy(2, 1, 2, 2)
    seed = 7
    lr = 0.5
    curve = train(ds, policy, epochs=2, lr=lr, seed=seed)

    masked_batch = []
    for ex in ds.train:
        rng = RngState(derive_utterance_seed(seed, f"{ex.example_id}:1"))
        masks, _ = sample_policy_masks(policy, ex.features.num_frames, ex.features.num_channels, rng)
        masked_batch.append((apply_masks(ex.features, masks), ex.label))
    model = init_model(3, 4)
    dw, db = gradient(model, masked_batch)
    model.weights -= lr * dw
    model.bias -= lr * db
    dev_nll = np.mean([forward_nll(model, ex.features, ex.label)[0] for ex in ds.dev])
    assert curve.dev_nll[1] == pytest.approx(dev_nll, abs=1e-12)


def test_masked_epoch_two_train_nll_differs():
    # epoch 1 metrics are mask-blind under a zero-init model (uniform softmax),
    # but the first step's gradient sees the masks, so epoch 2 diverges
    ds = generate_dataset(small_params(), 4)
    masked = train(ds, AugmentPolicy(2, 1, 2, 2), epochs=2, lr=0.5, seed=7)
    clean = train(ds, POLICY_PRESETS["none"], epochs=2, lr=0.5, seed=7)
    assert masked.train_nll[0] == clean.train_nll[0] == pytest.approx(math.log(3), abs=1e-12)
    assert masked.train_nll[1] != clean.train_nll[1]


def test_divergence_raises_with_epoch_number():
    ds = generate_dataset(default_params(), 0)
    with pytest.raises(DivergenceError, match="epoch"):
        train(ds, None, epochs=50, lr=1e5, seed=0)


def test_train_validation():
    ds = generate_dataset(small_params(), 0)
    with pytest.raises(ConfigError, match="epochs must be >= 1, got 0"):
        train(ds, None, epochs=0, lr=0.1, seed=0)
    for lr in (-0.1, math.nan, math.inf):
        with pytest.raises(ConfigError, match="lr must be finite and >= 0"):
            train(ds, None, epochs=1, lr=lr, seed=0)


def test_curve_csv_format():
    curve = LearningCurve(train_nll=(1.0, 0.5), dev_nll=(1.25, 0.75))
    lines = curve.to_csv().splitlines()
    assert lines[0] == "epoch,train_nll,dev_nll"
    assert lines[1] == "1,1.0,1.25"
    assert lines[2] == "2,0.5,0.75"
    assert curve.final_gap == 0.25


def test_curve_length_validation():
    with pytest.raises(ValueError):
        LearningCurve(train_nll=(1.0,), dev_nll=(1.0, 2.0))


def test_shipped_defaults_shrink_the_gap():
    # one paired seed as a fast unit check; the acceptance test runs five
    ds = generate_dataset(default_params(), 0)
    clean = train(ds, POLICY_PRESETS["none"], 200, 0.5, 0)
    masked = train(ds, DEFAULT_DEMO_POLICY, 200, 0.5, 0)
    assert masked.final_gap < clean.final_gap


def test_masked_learning_curve_is_pinned():
    # bit-exact reference: a change to re-masking, the gradient step or the rng streams shows here
    ds = generate_dataset(default_params(), DEFAULT_DEMO_SEED)
    curve = train(ds, DEFAULT_DEMO_POLICY, 20, DEFAULT_DEMO_LR, DEFAULT_DEMO_SEED)
    assert curve.train_nll == (
        1.0986122886681098, 1.07498099801738, 1.050416550528893, 1.0344290120653485, 1.0074394558963577,
        0.9939321502371592, 0.9691605434951474, 0.9391376538929673, 0.9451986313314917, 0.9078892506245503,
        0.901402137764038, 0.8834169645907016, 0.8825257617122052, 0.8374940286317171, 0.8175263958661048,
        0.8020677249149659, 0.81046090536808, 0.8426307176620731, 0.7807310010843534, 0.7529951413583098,
    )
    assert curve.dev_nll == (
        1.0986122886681096, 1.0709762940920262, 1.0472833493602023, 1.0218592059638367, 0.9993574942371595,
        0.9760419025189478, 0.9538656154685734, 0.9322613013366354, 0.9109199535195905, 0.892316101324748,
        0.8736453970728906, 0.8582692046835207, 0.8418307259260969, 0.8266574545271093, 0.8113064017310023,
        0.7951270435828379, 0.7786969433985627, 0.7674162477446024, 0.7575544236739662, 0.7446669246677247,
    )
