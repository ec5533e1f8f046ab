"""Optimizer arithmetic, the epoch loop, evaluation, history bookkeeping,
and checkpoint round trips."""

import copy
import math
import warnings

import numpy as np
import pytest

import compnet as cn
from compnet import (ConfigError, DataError, Dataset, FormatError,
                     ModelConfig, NumericError, OptimState, SynthSpec,
                     TrainConfig, build_model, checkpoint_load,
                     checkpoint_save, evaluate, fit, from_array,
                     generate_synthetic, init_optim_state, sgd_momentum_step,
                     train_epoch)


def tiny_model(seed=0, **overrides):
    base = dict(image_shape=(1, 8, 8), n_classes=2, n_features=4,
                conv_filters=(2,), kernel_size=3, dense_hidden=(3,),
                fusion_kind="compnet", seed=seed)
    base.update(overrides)
    return build_model(ModelConfig(**base))


def tiny_dataset(n=16, seed=0, n_features=4, labels=None):
    """``n`` rows whose image and features are drawn in turn, row by row."""
    rng = np.random.default_rng(seed)
    rows = [(rng.normal(size=(1, 8, 8)), rng.normal(size=n_features)) for _ in range(n)]
    labels = np.arange(n) % 2 if labels is None else np.array(labels)
    return Dataset([f"r{i}" for i in range(n)],
                   np.array([image for image, _ in rows]).reshape((n, 1, 8, 8)),
                   np.array([feats for _, feats in rows]).reshape((n, n_features)),
                   labels, 2)


def snapshot(model):
    return {n: p.copy() for n, p in model.params.items()}


def params_equal(a, b):
    return all(np.array_equal(a[n], b[n]) for n in a)


# ---------------------------------------------------------------------------
# config validation

def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=-0.1)
    assert TrainConfig(learning_rate=0.0).learning_rate == 0.0


# ---------------------------------------------------------------------------
# optimizer arithmetic

def test_sgd_step_without_momentum():
    params = {"w": np.array([1.0])}
    state = OptimState(velocities={"w": np.zeros(1)})
    sgd_momentum_step(params, {"w": np.array([0.5])}, state,
                      lr=0.1, momentum=0.0)
    assert np.array_equal(params["w"], [0.95])


def test_sgd_momentum_two_step_recursion():
    params = {"w": np.array([1.0])}
    state = OptimState(velocities={"w": np.zeros(1)})
    for expected_v, expected_w in ((0.5, 0.95), (0.95, 0.855)):
        sgd_momentum_step(params, {"w": np.array([0.5])}, state,
                          lr=0.1, momentum=0.9)
        assert abs(state.velocities["w"][0] - expected_v) <= 1e-15
        assert abs(params["w"][0] - expected_w) <= 1e-15


def test_zero_gradient_moves_only_by_velocity():
    params = {"w": np.array([1.0])}
    state = OptimState(velocities={"w": np.array([0.0])})
    sgd_momentum_step(params, {"w": np.zeros(1)}, state, lr=0.1, momentum=0.9)
    assert np.array_equal(params["w"], [1.0])
    state.velocities["w"][0] = 2.0
    sgd_momentum_step(params, {"w": np.zeros(1)}, state, lr=0.1, momentum=0.9)
    assert abs(params["w"][0] - (1.0 - 0.1 * 1.8)) <= 1e-15


def test_non_finite_gradient_moves_nothing():
    model = tiny_model()
    state = init_optim_state(model)
    rng = np.random.default_rng(4)
    for name, w in model.params.items():
        state.velocities[name] = rng.normal(size=w.shape)
    grads = {name: rng.normal(size=w.shape) for name, w in model.params.items()}
    grads["out.bias"][1] = np.nan  # the last parameter stepped
    params_before = snapshot(model)
    velocities_before = copy.deepcopy(state.velocities)
    with pytest.raises(NumericError, match="parameter out.bias"):
        sgd_momentum_step(model.params, grads, state, lr=0.1, momentum=0.9)
    for before, after in ((params_before, model.params),
                          (velocities_before, state.velocities)):
        assert all(before[n].tobytes() == after[n].tobytes() for n in before)


# ---------------------------------------------------------------------------
# the training loop

def test_zero_learning_rate_is_an_exact_no_op():
    model = tiny_model()
    before = snapshot(model)
    ds = tiny_dataset()
    fit(model, ds, None, TrainConfig(epochs=2, batch_size=4,
                                     learning_rate=0.0, seed=1))
    assert params_equal(before, model.params)


def test_single_sample_is_memorized():
    model = tiny_model(seed=2)
    ds = tiny_dataset(n=1)
    history = fit(model, ds, None,
                  TrainConfig(epochs=500, batch_size=1, learning_rate=0.05,
                              momentum=0.9, seed=0))
    assert history[-1].train.accuracy == 1.0


def test_training_is_seed_deterministic():
    runs = []
    for _ in range(2):
        model = tiny_model(seed=5)
        history = fit(model, tiny_dataset(), None,
                      TrainConfig(epochs=3, batch_size=4, learning_rate=0.01,
                                  seed=7))
        runs.append((snapshot(model), history[-1].train))
    assert params_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def test_history_length_and_cadence():
    model = tiny_model()
    train = tiny_dataset(n=12, seed=1)
    test = tiny_dataset(n=6, seed=2)
    history = fit(model, train, test,
                  TrainConfig(epochs=1, batch_size=4, learning_rate=0.01))
    assert len(history) == 1
    model = tiny_model()
    history = fit(model, train, test,
                  TrainConfig(epochs=7, batch_size=4, learning_rate=0.01,
                              eval_every=3))
    evaluated = [rec.epoch for rec in history if rec.test is not None]
    assert evaluated == [3, 6, 7]  # cadence plus the final epoch
    assert [rec.epoch for rec in history] == list(range(1, 8))


def test_early_stopping_with_patience():
    model = tiny_model()
    train = tiny_dataset(n=12, seed=1)
    test = tiny_dataset(n=6, seed=2)
    history = fit(model, train, test,
                  TrainConfig(epochs=50, batch_size=4, learning_rate=0.0,
                              eval_every=1, patience=2))
    assert len(history) < 50  # frozen parameters cannot keep improving


def test_infinite_loss_from_finite_logits_stops_fit_quietly():
    # Logits near +-1e308 are finite, but a label-1 row's loss
    # logsumexp - logit is 1e308 + 1e308, which overflows to inf.
    model = tiny_model(fusion_kind="image_only")
    model.params["out.bias"] = np.array([1e308, -1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"^loss diverged at epoch 0, batch 0$"):
            fit(model, tiny_dataset(), None,
                TrainConfig(epochs=1, batch_size=4, shuffle=False))


def test_training_on_empty_dataset_fails():
    model = tiny_model()
    empty = tiny_dataset(n=0)
    with pytest.raises(DataError):
        train_epoch(model, empty, TrainConfig(epochs=1),
                    init_optim_state(model))


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_counts_correct_predictions():
    model = tiny_model()
    model.set_params({n: np.zeros_like(p) for n, p in model.params.items()})
    ds = tiny_dataset(n=3, labels=[0, 0, 1])
    # Zero parameters give zero logits: argmax is class 0 everywhere.
    metrics = evaluate(model, ds)
    assert abs(metrics.accuracy - 2.0 / 3.0) <= 1e-15
    assert abs(metrics.loss - math.log(2)) <= 1e-12
    assert metrics.n == 3


def test_evaluate_is_repeatable_and_pure():
    model = tiny_model(seed=3)
    ds = tiny_dataset(n=20, seed=4)
    before = snapshot(model)
    a = evaluate(model, ds)
    b = evaluate(model, ds)
    assert a == b
    assert params_equal(before, model.params)


def test_fully_reliable_noise_free_data_reaches_perfect_accuracy():
    spec = SynthSpec(n_samples=40, image_shape=(1, 12, 12), pixel_noise=0.0,
                     image_reliability=1.0, feature_reliability=1.0, seed=5)
    ds = generate_synthetic(spec)
    norm = cn.zscore_fit(ds)
    ds_n = cn.zscore_apply(norm, ds)
    model = build_model(ModelConfig(
        image_shape=spec.image_shape, n_classes=2, n_features=spec.n_features,
        conv_filters=(2,), kernel_size=3, dense_hidden=(2,),
        fusion_kind="compnet", seed=1))
    history = fit(model, ds_n, None,
                  TrainConfig(epochs=120, batch_size=8, learning_rate=0.02,
                              seed=1))
    assert history[-1].train.accuracy == 1.0


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip_preserves_everything(tmp_path):
    model = tiny_model(seed=6)
    ds = tiny_dataset(n=12, seed=6)
    cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.01, seed=6)
    state = init_optim_state(model)
    fit(model, ds, None, cfg, state)
    path = tmp_path / "model.cmpn"
    checkpoint_save(model, state, path, train_config=cfg,
                    extra={"note": "round-trip"})

    loaded, loaded_state, extra = checkpoint_load(path)
    assert extra == {"note": "round-trip"}
    assert params_equal(model.params, loaded.params)
    assert all(np.array_equal(state.velocities[n], loaded_state.velocities[n])
               for n in state.velocities)
    assert loaded_state.epoch == state.epoch
    assert loaded.config == model.config

    rng = np.random.default_rng(1)
    images = from_array(rng.normal(size=(4, 1, 8, 8)))
    feats = from_array(rng.normal(size=(4, 4)))
    assert np.array_equal(cn.forward(model, images, feats).data,
                          cn.forward(loaded, images, feats).data)


@pytest.mark.parametrize("kind", ["compnet", "image_only", "concat"])
def test_checkpoint_round_trip_is_bit_exact_for_every_variant(tmp_path, kind):
    # Two conv stages and two hidden layers, saved after SGD steps so the
    # velocities are not zero.
    model = tiny_model(seed=3, image_shape=(1, 14, 14), conv_filters=(2, 3),
                       dense_hidden=(3, 2), fusion_kind=kind)
    ds = generate_synthetic(SynthSpec(n_samples=12, image_shape=(1, 14, 14),
                                      n_features=4, n_informative=2, seed=3))
    state = init_optim_state(model)
    fit(model, ds, None, TrainConfig(epochs=1, batch_size=4, seed=3), state)
    assert all(v.any() for v in state.velocities.values())
    path = tmp_path / "model.cmpn"
    checkpoint_save(model, state, path)

    loaded, loaded_state, _ = checkpoint_load(path)
    assert list(loaded.params) == list(model.params)
    for name, value in model.params.items():
        assert loaded.params[name].tobytes() == value.tobytes(), name
        assert loaded_state.velocities[name].tobytes() == \
               state.velocities[name].tobytes(), name
    assert loaded_state.epoch == state.epoch == 1
    images, features, _ = next(ds.batches(12))
    assert cn.forward(loaded, images, features).data.tobytes() == \
           cn.forward(model, images, features).data.tobytes()


def test_checkpoint_rejects_corrupted_magic(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.cmpn"
    checkpoint_save(model, init_optim_state(model), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        checkpoint_load(path)


def test_checkpoint_rejects_truncation(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.cmpn"
    checkpoint_save(model, init_optim_state(model), path)
    payload = path.read_bytes()
    path.write_bytes(payload[:-16])
    with pytest.raises(FormatError):
        checkpoint_load(path)


def test_checkpoint_rejects_a_partial_trailing_value(tmp_path):
    model = tiny_model()
    path = tmp_path / "model.cmpn"
    checkpoint_save(model, init_optim_state(model), path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(FormatError):
        checkpoint_load(path)


def test_resume_matches_uninterrupted_training(tmp_path):
    train = tiny_dataset(n=16, seed=8)
    test = tiny_dataset(n=8, seed=9)
    cfg = TrainConfig(epochs=6, batch_size=4, learning_rate=0.01,
                      momentum=0.9, seed=8, eval_every=2)

    straight = tiny_model(seed=8)
    straight_hist = fit(straight, train, test, cfg)

    resumed = tiny_model(seed=8)
    state = init_optim_state(resumed)
    history = fit(resumed, train, test,
                  TrainConfig(**{**cfg.to_dict(), "epochs": 3}), state)
    path = tmp_path / "mid.cmpn"
    checkpoint_save(resumed, state, path, train_config=cfg)
    loaded, loaded_state, _ = checkpoint_load(path)
    history += fit(loaded, train, test, cfg, loaded_state)

    assert params_equal(straight.params, loaded.params)
    assert len(history) == len(straight_hist)
    for a, b in zip(history, straight_hist):
        assert (a.epoch, a.train, a.running) == (b.epoch, b.train, b.running)
        if b.test is not None:
            assert a.test == b.test
        else:
            # The interrupted leg also evaluates at its own final epoch, so
            # the resumed history may hold one extra test row there.
            assert a.test is None or a.epoch == 3
