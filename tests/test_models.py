"""Model construction, the three variant graphs, prediction, the per-sample
weight matrices, and feature importance."""

import os

import numpy as np
import pytest

import compnet as cn
from compnet import (ConfigError, ConvParams, DenseParams,
                     ModelConfig, ShapeError, Tape,
                     VariantError, backward, build_model, feature_importance,
                     forward, models)
from compnet.models import FUSION_KINDS, tracked_forward
from conftest import INFORMATIVE
from gradcheck import from_array


def tiny_cfg(**overrides):
    base = dict(image_shape=(1, 8, 8), n_classes=2, n_features=4,
                conv_filters=(2,), kernel_size=3, dense_hidden=(3,),
                fusion_kind="compnet", seed=0)
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# geometry and config validation

def test_conv_stack_geometry_single_stage():
    model = build_model(tiny_cfg(image_shape=(1, 32, 32), kernel_size=5))
    assert model.params["dense0.weights"].shape == (2 * 14 * 14, 3)  # 32 -> 28 -> 14


def test_conv_stack_geometry_rejects_underflow():
    with pytest.raises(ConfigError, match=r"^conv stage 1: kernel 3 does not fit in 1x1$"):
        tiny_cfg(image_shape=(1, 4, 4), conv_filters=(2, 2))  # 4 -> 2 -> 1


def test_conv_stack_geometry_rejects_odd_pre_pool():
    with pytest.raises(ConfigError, match=r"^conv stage 0: pooling needs even dims, got 7x7$"):
        tiny_cfg(kernel_size=2)  # 8-2+1 = 7 is odd


def test_learned_width_must_match_classes_times_features():
    with pytest.raises(ConfigError):
        tiny_cfg(n_features=3, learned_width=7)
    cfg = tiny_cfg(n_features=3, learned_width=6)
    assert cfg.learned_width == 6


def test_learned_width_rejected_for_non_compnet():
    with pytest.raises(ConfigError):
        tiny_cfg(fusion_kind="image_only", learned_width=8)


def test_concat_requires_hidden_layer():
    with pytest.raises(ConfigError):
        tiny_cfg(fusion_kind="concat", dense_hidden=())


def test_unknown_fusion_kind():
    with pytest.raises(ConfigError):
        tiny_cfg(fusion_kind="late_fusion")


# ---------------------------------------------------------------------------
# parameter counts

def test_tiny_parameter_count_matches_hand_sum():
    cfg = tiny_cfg(dense_hidden=())
    model = build_model(cfg)
    conv = 2 * 1 * 3 * 3 + 2          # kernels + biases
    flat = 2 * 3 * 3                  # 8 -> conv 6 -> pool 3
    out = flat * 8 + 8                # straight to the learned vector
    n_params = sum(p.size for p in model.params.values())
    assert n_params == conv + out == 172


def test_large_configuration_parameter_count():
    cfg = ModelConfig(image_shape=(1, 71, 71), n_classes=2, n_features=64,
                      conv_filters=(30, 30), kernel_size=6,
                      dense_hidden=(256,), learned_width=128)
    model = build_model(cfg)
    assert cfg.learned_width == 2 * 64
    conv0 = 30 * 1 * 36 + 30
    conv1 = 30 * 30 * 36 + 30
    flat = 30 * 14 * 14               # 71 -> 66 -> 33 -> 28 -> 14
    dense0 = flat * 256 + 256
    out = 256 * 128 + 128
    n_params = sum(p.size for p in model.params.values())
    assert n_params == conv0 + conv1 + dense0 + out == 1_571_972


def test_params_are_in_plan_order_per_variant():
    for kind in FUSION_KINDS:
        model = build_model(tiny_cfg(n_classes=3, dense_hidden=(3, 2), fusion_kind=kind))
        assert list(model.params) == [
            "conv0.kernels", "conv0.bias", "dense0.weights", "dense0.bias",
            "dense1.weights", "dense1.bias", "out.weights", "out.bias"]


# ---------------------------------------------------------------------------
# initialization

def test_build_is_seed_deterministic():
    a = build_model(tiny_cfg(seed=3))
    b = build_model(tiny_cfg(seed=3))
    c = build_model(tiny_cfg(seed=4))
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    assert any(not np.array_equal(a.params[n], c.params[n])
               for n in a.params)


def test_biases_start_at_zero_and_weights_are_bounded():
    model = build_model(tiny_cfg())
    for name, value in model.params.items():
        if name.endswith(".bias"):
            assert not value.any()
        else:
            assert np.abs(value).max() <= 1.0  # Glorot bound for these fans


# ---------------------------------------------------------------------------
# forward semantics

def _random_inputs(cfg, batch=3, seed=0):
    rng = np.random.default_rng(seed)
    images = from_array(rng.normal(size=(batch, *cfg.image_shape)))
    features = from_array(rng.normal(size=(batch, cfg.n_features)))
    return images, features


def test_zero_parameters_give_uniform_probabilities():
    model = build_model(tiny_cfg())
    model.params.update({n: np.zeros_like(p) for n, p in model.params.items()})
    images, features = _random_inputs(model.config)
    logits = forward(model, images, features)
    assert not logits.data.any()


def test_zero_designed_features_zero_the_logits():
    model = build_model(tiny_cfg(seed=9))
    images, _ = _random_inputs(model.config)
    logits = forward(model, images,
                     from_array(np.zeros((3, model.config.n_features))))
    assert not logits.data.any()


def test_forward_is_bit_deterministic():
    model = build_model(tiny_cfg(seed=1))
    images, features = _random_inputs(model.config, seed=5)
    a = forward(model, images, features).data
    b = forward(model, images, features).data
    assert np.array_equal(a, b)


def test_image_only_ignores_features():
    model = build_model(tiny_cfg(fusion_kind="image_only", seed=2))
    images, features = _random_inputs(model.config)
    _, other = _random_inputs(model.config, seed=99)
    with_f = forward(model, images, features).data
    without = forward(model, images, None).data
    with_other = forward(model, images, other).data
    assert np.array_equal(with_f, without)
    assert np.array_equal(with_f, with_other)


def test_concat_uses_features():
    model = build_model(tiny_cfg(fusion_kind="concat", seed=2))
    images, features = _random_inputs(model.config)
    _, other = _random_inputs(model.config, seed=99)
    a = forward(model, images, features).data
    b = forward(model, images, other).data
    assert not np.array_equal(a, b)


def test_features_required_unless_image_only():
    for kind in ("compnet", "concat"):
        model = build_model(tiny_cfg(fusion_kind=kind))
        images, _ = _random_inputs(model.config)
        with pytest.raises(ShapeError):
            forward(model, images, None)


def test_input_validation():
    model = build_model(tiny_cfg())
    _, features = _random_inputs(model.config)
    with pytest.raises(ShapeError):
        forward(model, from_array(np.ones((3, 1, 7, 8))), features)


@pytest.mark.parametrize("kind", FUSION_KINDS)
def test_a_features_batch_one_column_short_is_rejected_before_any_layer(kind):
    # The layers themselves no longer check the designed-feature width.
    model = build_model(tiny_cfg(fusion_kind=kind))
    images, features = _random_inputs(model.config)
    with pytest.raises(ShapeError, match="features must be"):
        forward(model, images, from_array(features.data[:, :-1]))


# ---------------------------------------------------------------------------
# run order: the plan lists the ops in the order they run, and each trunk
# stage pools before its LeakyReLU

def two_stage_cfg(**overrides):
    return tiny_cfg(image_shape=(1, 14, 14), conv_filters=(2, 3), **overrides)


def test_trunk_pools_before_each_leaky_relu(monkeypatch):
    # The ops are patched onto ``models`` the way perfbench's tracer patches
    # them, so this also pins that the forward looks each one up at call time.
    calls = []

    def recording(name, fn):
        def wrapper(x, *args):
            calls.append((name, x.shape))
            return fn(x, *args)
        return wrapper

    for name in ("conv2d", "maxpool2d", "leaky_relu", "dense", "concat_columns",
                 "fusion_weight_matrix"):
        monkeypatch.setattr(models, name, recording(name, getattr(models, name)))
    trunk = [("conv2d", (2, 1, 14, 14)), ("maxpool2d", (2, 2, 12, 12)),
             ("leaky_relu", (2, 2, 6, 6)), ("conv2d", (2, 2, 6, 6)),
             ("maxpool2d", (2, 3, 4, 4)), ("leaky_relu", (2, 3, 2, 2)),
             ("dense", (2, 3, 2, 2)), ("leaky_relu", (2, 3))]
    expected = {
        "compnet": trunk + [("dense", (2, 3)), ("fusion_weight_matrix", (2, 8))],
        "concat": trunk + [("concat_columns", (2, 3)), ("dense", (2, 7))],
        "image_only": trunk + [("dense", (2, 3))],
    }
    for kind, ops in expected.items():
        model = build_model(two_stage_cfg(fusion_kind=kind))
        images, features = _random_inputs(model.config, batch=2)
        for run in (forward, lambda m, i, f: tracked_forward(m, Tape(), i, f)):
            calls.clear()
            run(model, images, features)
            assert calls == ops, kind


def _relu_then_pool_forward(model, p, images, features):
    """Each trunk stage activated before it pools, composed by hand; returns
    the logits and each stage's conv output."""
    cfg = model.config
    slope = cfg.leaky_slope
    x, conv_outs = images, []
    for i in range(len(cfg.conv_filters)):
        x = cn.conv2d(x, ConvParams(p[f"conv{i}.kernels"], p[f"conv{i}.bias"]))
        conv_outs.append(x.data)
        x = cn.maxpool2d(cn.leaky_relu(x, slope))
    for i in range(len(cfg.dense_hidden)):
        x = cn.dense(x, DenseParams(p[f"dense{i}.weights"], p[f"dense{i}.bias"]))
        x = cn.leaky_relu(x, slope)
        if i == 0 and cfg.fusion_kind == "concat":
            x = cn.concat_columns(x, features)
    x = cn.dense(x, DenseParams(p["out.weights"], p["out.bias"]))
    if cfg.fusion_kind == "compnet":
        x = cn.fusion_weight_matrix(x, cfg.n_classes, features)
    return x, conv_outs


def _windows(x):
    """``[B, C, H, W]`` as its 2x2 pooling windows, ``[B, C, H/2, W/2, 4]``."""
    b, c, h, w = x.shape
    return x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
        b, c, h // 2, w // 2, 4)


def test_pool_first_forward_and_gradients_equal_relu_then_pool():
    rng = np.random.default_rng(21)
    shape = (6, 1, 14, 14)
    batches = {
        "random": rng.normal(size=shape),
        # Mostly zeros plus small integers: many windows tie exactly.
        "integer": np.where(rng.random(shape) < 0.9, 0.0,
                            rng.integers(1, 3, size=shape).astype(float)),
    }
    for kind in FUSION_KINDS:
        model = build_model(two_stage_cfg(fusion_kind=kind, seed=4))
        cfg = model.config
        # Non-zero biases, so zero images do not pin every conv output at 0.
        model.params.update({n: rng.normal(scale=0.1, size=v.shape) if n.endswith(".bias")
                             else v for n, v in model.params.items()})
        for name, data in batches.items():
            images = from_array(data)
            features = from_array(rng.normal(size=(shape[0], cfg.n_features)))
            labels = rng.integers(0, cfg.n_classes, size=shape[0])

            plain = {n: from_array(v) for n, v in model.params.items()}
            ref_logits, conv_outs = _relu_then_pool_forward(model, plain, images, features)
            logits = forward(model, images, features)
            assert logits.data.tobytes() == ref_logits.data.tobytes(), (kind, name)

            # Gradients may only differ where leaky_relu rounds two different
            # inputs of a window to one value; these inputs have none.
            tied_windows = 0
            for conv_out in conv_outs:
                win = _windows(conv_out)
                activated = np.maximum(win, cfg.leaky_slope * win)
                assert np.array_equal(win.argmax(axis=-1), activated.argmax(axis=-1))
                tied_windows += int(((win == win.max(axis=-1, keepdims=True))
                                     .sum(axis=-1) > 1).sum())
            assert (tied_windows > 0) == (name == "integer")

            tape = Tape()
            logits, watched = tracked_forward(model, tape, images, features)
            grads = backward(cn.cross_entropy(logits, labels))
            ref_tape = Tape()
            ref_watched = {n: ref_tape.watch(from_array(v)) for n, v in model.params.items()}
            ref_logits, _ = _relu_then_pool_forward(model, ref_watched, images, features)
            ref_grads = backward(cn.cross_entropy(ref_logits, labels))
            assert logits.data.tobytes() == ref_logits.data.tobytes(), (kind, name)
            for n in model.params:
                assert (grads[watched[n].node_id].tobytes()
                        == ref_grads[ref_watched[n].node_id].tobytes()), (kind, name, n)


# ---------------------------------------------------------------------------
# worker count

def test_default_jobs_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    assert models.default_jobs() == min(2, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# predict

def predict(model, images, features):
    """Per-sample argmax class; ties go to the lowest class index, as in ``evaluate``."""
    return np.argmax(forward(model, images, features).data, axis=1).tolist()


def test_predict_argmax_and_tie_rule():
    model = build_model(tiny_cfg())
    # Zero everything, then craft the learned-vector bias so every sample
    # gets the same weight matrix regardless of its image.
    params = {n: np.zeros_like(p) for n, p in model.params.items()}
    params["out.bias"] = np.array([0.2, 0.0, 0.0, 0.0,
                                   0.9, 0.0, 0.0, 0.0])
    model.params.update(params)
    images, _ = _random_inputs(model.config, batch=2)
    e0 = from_array(np.tile([1.0, 0, 0, 0], (2, 1)))
    assert predict(model, images, e0) == [1, 1]  # scores [0.2, 0.9]
    zero = from_array(np.zeros((2, 4)))
    assert predict(model, images, zero) == [0, 0]  # tie goes to class 0


def test_predict_invariant_to_feature_scaling():
    model = build_model(tiny_cfg(seed=6))
    images, features = _random_inputs(model.config, batch=8, seed=7)
    base = predict(model, images, features)
    for alpha in (0.5, 2.0, 10.0):
        scaled = from_array(features.data * alpha)
        assert predict(model, images, scaled) == base


# ---------------------------------------------------------------------------
# per-sample weight matrices

def weight_matrices(model, images):
    """The compnet image pathway's output, read as ``[B, n_classes, n_features]``."""
    cfg = model.config
    return models.image_pathway(model, images).data.reshape(-1, cfg.n_classes, cfg.n_features)


def test_extract_zero_model_gives_zero_matrices():
    model = build_model(tiny_cfg())
    model.params.update({n: np.zeros_like(p) for n, p in model.params.items()})
    images, _ = _random_inputs(model.config)
    mats = weight_matrices(model, images)
    assert mats.shape == (3, 2, 4)
    assert not mats.any()


def test_extract_is_consistent_with_forward():
    model = build_model(tiny_cfg(seed=8))
    images, features = _random_inputs(model.config, batch=5, seed=3)
    mats = weight_matrices(model, images)
    logits = forward(model, images, features).data
    recomputed = np.einsum("bkn,bn->bk", mats, features.data)
    assert np.max(np.abs(logits - recomputed)) <= 1e-12


def test_trained_weight_matrices_vary_per_sample(bench):
    run = bench.result.results[("compnet", 1)]
    images = from_array(bench.dataset.images[:60])
    mats = weight_matrices(run.model, images)
    n = mats.shape[0]
    identical = sum(
        np.array_equal(mats[i], mats[j])
        for i in range(n) for j in range(i + 1, n))
    assert identical <= 0.01 * (n * (n - 1) / 2)


# ---------------------------------------------------------------------------
# feature importance

def _constant_matrix_model(bias_rows):
    """A compnet whose weight matrix is the same for every image."""
    cfg = tiny_cfg(n_features=2, dense_hidden=())
    model = build_model(cfg)
    params = {n: np.zeros_like(p) for n, p in model.params.items()}
    params["out.bias"] = np.asarray(bias_rows, dtype=float).reshape(-1)
    model.params.update(params)
    return model


def _two_sample_dataset(seed=0):
    rng = np.random.default_rng(seed)
    rows = [(rng.normal(size=(1, 8, 8)), rng.normal(size=2)) for _ in range(2)]
    return cn.Dataset(["t0", "t1"], np.array([image for image, _ in rows]),
                      np.array([feats for _, feats in rows]), np.array([0, 1]), 2)


def test_importance_of_constant_matrix():
    model = _constant_matrix_model([[1, -2], [3, 4]])
    report = feature_importance(model, _two_sample_dataset())
    assert np.array_equal(report.importance, [[1, 2], [3, 4]])
    assert np.array_equal(report.ranking[0], [1, 0])
    assert np.array_equal(report.ranking[1], [1, 0])


def test_importance_is_sign_blind():
    ds = _two_sample_dataset()
    pos = feature_importance(_constant_matrix_model([[1, -2], [3, 4]]), ds)
    neg = feature_importance(_constant_matrix_model([[-1, 2], [-3, -4]]), ds)
    assert np.array_equal(pos.importance, neg.importance)


def test_importance_ranking_breaks_ties_toward_lower_index():
    report = feature_importance(_constant_matrix_model([[2, 2], [0, 1]]),
                                _two_sample_dataset())
    assert np.array_equal(report.ranking[0], [0, 1])


def test_rank_of_inverts_ranking():
    report = feature_importance(_constant_matrix_model([[1, -2], [3, 4]]),
                                _two_sample_dataset())
    for k in range(2):
        # rank_of[j] gives feature j's position in the descending list
        for pos, j in enumerate(report.ranking[k]):
            assert report.rank_of[k, j] == pos


def test_importance_rejects_non_compnet():
    model = build_model(tiny_cfg(fusion_kind="concat"))
    for dataset in (_two_sample_dataset(), None):  # refused before the dataset is read
        with pytest.raises(VariantError):
            feature_importance(model, dataset)


def test_benchmark_importance_favors_informative_features(bench):
    rank_sums = np.zeros(2)
    nuisance_sums = np.zeros(2)
    for seed in (1, 2, 3, 4, 5):
        run = bench.result.results[("compnet", seed)]
        report = feature_importance(run.model, bench.dataset)
        for k in range(2):
            rank_sums[k] += report.rank_of[k, list(INFORMATIVE)].mean()
            nuisance_sums[k] += report.rank_of[k, len(INFORMATIVE):].mean()
    assert (rank_sums < nuisance_sums).all()
