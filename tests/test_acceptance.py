"""Release gate: nine end-to-end checks covering gradients, layer oracles,
prediction invariants, the benchmark claim, determinism, checkpoints,
feature importance, and the data layer.

Each test prints one summary line with its measured numbers, so the
captured output reads as a scorecard for the whole gate.
"""

import json
import time

import numpy as np

import compnet as cn
from compnet import autodiff as ad
from compnet.cli import main
from compnet.layers import (ConvParams, DenseParams, concat_columns, conv2d,
                            cross_entropy, dense, fusion_weight_matrix,
                            leaky_relu, maxpool2d)
from compnet.models import tracked_forward
from conftest import BENCH_SEEDS, INFORMATIVE, NUISANCE, TINY_CLI_CONFIG
from naive_ref import conv2d_ref, dense_ref, fusion_ref, maxpool2d_ref

GRAD_STEP = 1e-5
GRAD_TOL = 1e-6


def tiny_model_config(kind, seed=3):
    return cn.ModelConfig(image_shape=(1, 8, 8), n_classes=2, n_features=4,
                          conv_filters=(2,), kernel_size=3, dense_hidden=(3,),
                          fusion_kind=kind, seed=seed)


def max_rel_err(analytic, numeric):
    scale = np.maximum(1e-12, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / scale))


# ---------------------------------------------------------------------------
# 1. gradients: every layer and every model variant against central differences

def _weighted_sum(out, weights):
    return ad.reduce_sum(ad.mul(out, ad.from_array(weights)))


def _layer_grad_cases(rng):
    """(name, fn, point) triples: fn maps one tensor to a scalar tensor."""
    x_conv = rng.normal(size=(2, 1, 6, 6))
    kernels = rng.normal(size=(2, 1, 3, 3))
    cbias = rng.normal(size=2)
    w_conv = rng.normal(size=(2, 2, 4, 4))
    x_pool = rng.normal(size=(2, 2, 4, 4))
    w_pool = rng.normal(size=(2, 2, 2, 2))
    x_dense = rng.normal(size=(3, 5))
    w_mat = rng.normal(size=(5, 4))
    dbias = rng.normal(size=4)
    w_dense = rng.normal(size=(3, 4))
    # keep every coordinate at least 0.2 from the kink at zero
    x_leaky = rng.choice([-1.0, 1.0], size=(3, 4)) * rng.uniform(0.2, 1.5, (3, 4))
    cols_a = rng.normal(size=(3, 2))
    cols_b = rng.normal(size=(3, 3))
    w_cols = rng.normal(size=(3, 5))
    learned = rng.normal(size=(3, 8))
    designed = rng.normal(size=(3, 4))
    w_fused = rng.normal(size=(3, 2))
    n_classes = 2
    logits = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 1])

    return [
        ("conv2d/x",
         lambda t: _weighted_sum(conv2d(t, ConvParams(ad.from_array(kernels),
                                                      ad.from_array(cbias))),
                                 w_conv),
         ad.from_array(x_conv)),
        ("conv2d/kernels",
         lambda t: _weighted_sum(conv2d(ad.from_array(x_conv),
                                        ConvParams(t, ad.from_array(cbias))),
                                 w_conv),
         ad.from_array(kernels)),
        ("conv2d/bias",
         lambda t: _weighted_sum(conv2d(ad.from_array(x_conv),
                                        ConvParams(ad.from_array(kernels), t)),
                                 w_conv),
         ad.from_array(cbias)),
        ("maxpool2d/x",
         lambda t: _weighted_sum(maxpool2d(t), w_pool),
         ad.from_array(x_pool)),
        ("dense/x",
         lambda t: _weighted_sum(dense(t, DenseParams(ad.from_array(w_mat),
                                                      ad.from_array(dbias))),
                                 w_dense),
         ad.from_array(x_dense)),
        ("dense/weights",
         lambda t: _weighted_sum(dense(ad.from_array(x_dense),
                                       DenseParams(t, ad.from_array(dbias))),
                                 w_dense),
         ad.from_array(w_mat)),
        ("dense/bias",
         lambda t: _weighted_sum(dense(ad.from_array(x_dense),
                                       DenseParams(ad.from_array(w_mat), t)),
                                 w_dense),
         ad.from_array(dbias)),
        ("leaky_relu/x",
         lambda t: _weighted_sum(leaky_relu(t, 0.01), w_dense),
         ad.from_array(x_leaky)),
        ("concat_columns/a",
         lambda t: _weighted_sum(concat_columns(t, ad.from_array(cols_b)),
                                 w_cols),
         ad.from_array(cols_a)),
        ("concat_columns/b",
         lambda t: _weighted_sum(concat_columns(ad.from_array(cols_a), t),
                                 w_cols),
         ad.from_array(cols_b)),
        ("fusion/learned",
         lambda t: _weighted_sum(fusion_weight_matrix(
             t, n_classes, ad.from_array(designed)), w_fused),
         ad.from_array(learned)),
        ("fusion/designed",
         lambda t: _weighted_sum(fusion_weight_matrix(
             ad.from_array(learned), n_classes, t), w_fused),
         ad.from_array(designed)),
        ("cross_entropy/logits",
         lambda t: cross_entropy(t, labels),
         ad.from_array(logits)),
    ]


def _model_grad_worst(kind, rng):
    """Worst relative error of tape gradients over all parameters of a model."""
    model = cn.build_model(tiny_model_config(kind))
    images = ad.from_array(rng.normal(size=(3, 1, 8, 8)))
    features = ad.from_array(rng.normal(size=(3, 4)))
    labels = np.array([0, 1, 0])

    def loss_value():
        return cross_entropy(cn.forward(model, images, features), labels).item()

    tape = cn.Tape()
    logits, watched = tracked_forward(model, tape, images, features)
    grads = cn.backward(cross_entropy(logits, labels))
    base = {name: p.copy() for name, p in model.params.items()}

    worst = 0.0
    for name in model.param_order:
        analytic = grads[watched[name].node_id].data.ravel()
        flat = base[name].ravel()
        numeric = np.empty_like(flat)
        for i in range(flat.size):
            probes = []
            for sign in (+1.0, -1.0):
                bumped = base[name].copy()
                bumped.ravel()[i] += sign * GRAD_STEP
                model.set_params({**base, name: bumped})
                probes.append(loss_value())
            numeric[i] = (probes[0] - probes[1]) / (2 * GRAD_STEP)
        model.set_params(base)
        worst = max(worst, max_rel_err(analytic, numeric))
    return worst


def test_gradients_match_central_differences_for_layers_and_models():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_layer = 0.0
    for name, fn, point in _layer_grad_cases(rng):
        report = cn.grad_check(fn, point, step=GRAD_STEP, tol=GRAD_TOL)
        assert report.passed, f"{name}: max rel err {report.max_rel_err:.3e}"
        worst_layer = max(worst_layer, report.max_rel_err)
    worst_model = 0.0
    for kind in ("compnet", "image_only", "concat"):
        err = _model_grad_worst(kind, rng)
        assert err <= GRAD_TOL, f"{kind}: max rel err {err:.3e}"
        worst_model = max(worst_model, err)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
    print(f"PASS gradient suite: layers max rel err {worst_layer:.2e}, "
          f"models max rel err {worst_model:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. the fusion layer against an explicit reshape-then-dot reference

def test_fusion_layer_matches_reshape_dot_reference():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        n_classes = int(rng.integers(2, 5))      # up to 4 classes
        n_features = int(rng.integers(1, 9))     # up to 8 features
        batch = int(rng.integers(1, 5))
        learned = rng.normal(size=(batch, n_classes * n_features))
        designed = rng.normal(size=(batch, n_features))
        got = fusion_weight_matrix(ad.from_array(learned), n_classes,
                                   ad.from_array(designed)).data
        want = fusion_ref(learned, n_classes, n_features, designed)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-12

    # a one-hot designed vector must read off one learned column exactly
    learned = rng.normal(size=(2, 12))
    n_classes = 3
    matrices = learned.reshape(2, 3, 4)
    for j in range(4):
        one_hot = np.zeros((2, 4))
        one_hot[:, j] = 1.0
        got = fusion_weight_matrix(ad.from_array(learned), n_classes,
                                   ad.from_array(one_hot)).data
        assert np.array_equal(got, matrices[:, :, j])

    # linearity in the designed features
    d1 = rng.normal(size=(2, 4))
    d2 = rng.normal(size=(2, 4))
    combo = fusion_weight_matrix(ad.from_array(learned), n_classes,
                                 ad.from_array(2.5 * d1 - 0.5 * d2)).data
    parts = (2.5 * fusion_weight_matrix(ad.from_array(learned), n_classes,
                                        ad.from_array(d1)).data
             - 0.5 * fusion_weight_matrix(ad.from_array(learned), n_classes,
                                          ad.from_array(d2)).data)
    lin_err = float(np.max(np.abs(combo - parts)))
    assert lin_err <= 1e-12
    print(f"PASS fusion oracle: 1000 instances max err {worst:.2e}, "
          f"one-hot exact, linearity err {lin_err:.2e}")


# ---------------------------------------------------------------------------
# 3. conv / pool / dense against naive nested-loop references

def test_conv_pool_dense_match_naive_loop_references():
    rng = np.random.default_rng(11)
    worst = {"conv": 0.0, "pool": 0.0, "dense": 0.0}
    for _ in range(500):
        k = int(rng.integers(1, 4))
        h = int(rng.integers(k, 9))
        w = int(rng.integers(k, 9))
        b = int(rng.integers(1, 4))
        c = int(rng.integers(1, 4))
        f = int(rng.integers(1, 5))
        x = rng.normal(size=(b, c, h, w))
        kernels = rng.normal(size=(f, c, k, k))
        bias = rng.normal(size=f)
        got = conv2d(ad.from_array(x),
                     ConvParams(ad.from_array(kernels), ad.from_array(bias))).data
        worst["conv"] = max(worst["conv"], float(np.max(np.abs(
            got - conv2d_ref(x, kernels, bias)))))
    for _ in range(500):
        b = int(rng.integers(1, 4))
        c = int(rng.integers(1, 4))
        h = int(rng.choice([2, 4, 6, 8]))
        w = int(rng.choice([2, 4, 6, 8]))
        x = rng.normal(size=(b, c, h, w))
        got = maxpool2d(ad.from_array(x)).data
        worst["pool"] = max(worst["pool"], float(np.max(np.abs(
            got - maxpool2d_ref(x)))))
    for _ in range(500):
        b = int(rng.integers(1, 5))
        p = int(rng.integers(1, 9))
        q = int(rng.integers(1, 9))
        x = rng.normal(size=(b, p))
        weights = rng.normal(size=(p, q))
        bias = rng.normal(size=q)
        got = dense(ad.from_array(x),
                    DenseParams(ad.from_array(weights), ad.from_array(bias))).data
        worst["dense"] = max(worst["dense"], float(np.max(np.abs(
            got - dense_ref(x, weights, bias)))))
    assert max(worst.values()) <= 1e-12
    print(f"PASS layer oracles: 500 instances each, max err "
          f"conv {worst['conv']:.2e}, pool {worst['pool']:.2e}, "
          f"dense {worst['dense']:.2e}")


# ---------------------------------------------------------------------------
# 4. predictions are invariant to positive scaling of the designed features

def test_prediction_invariant_to_positive_feature_scaling(bench):
    model = bench.result.results[("compnet", 1)].model
    rng = np.random.default_rng(2024)
    images = ad.from_array(rng.normal(0.0, 5.0, size=(200, 1, 32, 32)))
    features = rng.normal(size=(200, 16))
    baseline = cn.predict(model, images, ad.from_array(features))
    for alpha in (0.5, 2.0, 10.0):
        scaled = cn.predict(model, images, ad.from_array(alpha * features))
        assert scaled == baseline, f"alpha={alpha} changed predictions"
    print("PASS scale invariance: 200 inputs, alpha in {0.5, 2, 10}, "
          "predictions unchanged")


# ---------------------------------------------------------------------------
# 5. the benchmark claim: fusion generalizes better than the baselines

def test_benchmark_fusion_beats_image_only_and_concat(bench):
    means = bench.result.means
    advantage = bench.result.improvements["image_only"]
    compnet_gap = means["compnet"]["gap"]
    image_gap = means["image_only"]["gap"]
    concat_test = means["concat"]["test_acc"]
    compnet_test = means["compnet"]["test_acc"]

    assert advantage >= 5.0, \
        f"test-accuracy advantage {advantage:.2f} points < 5"
    assert compnet_gap < image_gap, \
        f"train-test gap {compnet_gap:.4f} not below image-only {image_gap:.4f}"
    assert compnet_test >= concat_test, \
        f"test accuracy {compnet_test:.4f} below concat {concat_test:.4f}"
    assert bench.elapsed < 600.0, f"benchmark took {bench.elapsed:.0f}s"
    print(f"PASS benchmark: fusion test {compnet_test:.4f} "
          f"(image-only +{advantage:.2f} pts, concat "
          f"{concat_test:.4f}), gap {compnet_gap:.4f} vs image-only "
          f"{image_gap:.4f}, {bench.elapsed:.0f}s for 15 runs")


# ---------------------------------------------------------------------------
# 6. bitwise determinism of training artifacts

def test_identical_runs_write_identical_artifacts(small_dataset_dir, tmp_path):
    config = {**TINY_CLI_CONFIG,
              "train": {**TINY_CLI_CONFIG["train"], "epochs": 3}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    for d in ("one", "two"):
        rc = main(["train", "--config", str(cfg_path),
                   "--data", str(small_dataset_dir),
                   "--model", "compnet", "--out", str(tmp_path / d)])
        assert rc == 0
    history_same = ((tmp_path / "one" / "history.csv").read_bytes()
                    == (tmp_path / "two" / "history.csv").read_bytes())
    ckpt_same = ((tmp_path / "one" / "checkpoint.cmpn").read_bytes()
                 == (tmp_path / "two" / "checkpoint.cmpn").read_bytes())
    assert history_same and ckpt_same
    print("PASS determinism: repeated run gave byte-identical "
          "history.csv and checkpoint")


# ---------------------------------------------------------------------------
# 7. checkpoint round trip and bit-exact resume

def test_checkpoint_round_trip_and_resume_are_bit_exact(tmp_path):
    spec = cn.SynthSpec(n_samples=64, image_shape=(1, 8, 8), n_features=4,
                        n_informative=2, seed=13)
    ds = cn.generate_synthetic(spec)
    train_ds, test_ds = cn.split(ds, 0.75, seed=13)
    cfg = cn.TrainConfig(epochs=6, batch_size=8, learning_rate=0.01,
                         momentum=0.9, seed=13, eval_every=2)

    model = cn.build_model(tiny_model_config("compnet", seed=13))
    state = cn.init_optim_state(model)
    cn.fit(model, train_ds, test_ds,
           cn.TrainConfig(**{**cfg.to_dict(), "epochs": 3}), state)

    images = ad.from_array(test_ds.images())
    features = ad.from_array(test_ds.features())
    before = cn.forward(model, images, features).data.tobytes()
    path = tmp_path / "mid.cmpn"
    cn.checkpoint_save(model, state, path, train_config=cfg)
    loaded, loaded_state, _ = cn.checkpoint_load(path)
    after = cn.forward(loaded, images, features).data.tobytes()
    assert before == after, "reloaded model predicts differently"

    cn.fit(loaded, train_ds, test_ds, cfg, loaded_state)

    straight = cn.build_model(tiny_model_config("compnet", seed=13))
    cn.fit(straight, train_ds, test_ds, cfg)
    identical = all(np.array_equal(straight.params[n], loaded.params[n])
                    for n in straight.param_order)
    assert identical, "resumed parameters differ from uninterrupted training"
    print("PASS checkpoints: reload predicts bit-identically and a resumed "
          "run matches uninterrupted training bit-exactly")


# ---------------------------------------------------------------------------
# 8. importance ranks the constructed informative features above nuisance

def test_importance_ranks_informative_features_above_nuisance(bench):
    seeds_passing = 0
    margins = []
    for seed in BENCH_SEEDS:
        model = bench.result.results[("compnet", seed)].model
        rank_of = cn.feature_importance(model, bench.dataset).rank_of
        per_class_ok = []
        for k in range(rank_of.shape[0]):
            informative = float(np.mean(rank_of[k, list(INFORMATIVE)]))
            nuisance = float(np.mean(rank_of[k, list(NUISANCE)]))
            per_class_ok.append(informative < nuisance)
            margins.append(nuisance - informative)
        seeds_passing += all(per_class_ok)
    assert seeds_passing >= 4, f"only {seeds_passing}/5 seeds rank correctly"
    print(f"PASS importance: {seeds_passing}/5 seeds rank informative "
          f"features above nuisance in every class "
          f"(mean rank margin {np.mean(margins):.2f})")


# ---------------------------------------------------------------------------
# 9. data layer: round trip, normalization, split proportions

def test_data_round_trip_normalization_and_split(tmp_path):
    spec = cn.SynthSpec(n_samples=200, image_shape=(1, 8, 8), seed=21)
    ds = cn.generate_synthetic(spec)

    first = tmp_path / "first"
    second = tmp_path / "second"
    cn.save_dataset(ds, first)
    loaded = cn.load_dataset(first)
    assert loaded.ids() == ds.ids()
    assert np.array_equal(loaded.images(), ds.images())
    assert np.array_equal(loaded.features(), ds.features())
    assert np.array_equal(loaded.labels(), ds.labels())
    cn.save_dataset(loaded, second)
    for name in ("images.bin", "features.csv", "labels.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()

    norm = cn.zscore_fit(ds)
    feats = cn.zscore_apply(norm, ds).features()
    live = ~norm.constant_mask
    mean_err = float(np.max(np.abs(feats.mean(axis=0)[live])))
    std_err = float(np.max(np.abs(feats.std(axis=0)[live] - 1.0)))
    assert mean_err <= 1e-9 and std_err <= 1e-9

    labels = ds.labels()
    train_ds, test_ds = cn.split(ds, 0.75, seed=4, stratified=True)
    assert sorted(train_ds.ids() + test_ds.ids()) == sorted(ds.ids())
    worst_dev = 0
    for k in range(2):
        total = int((labels == k).sum())
        in_train = int((train_ds.labels() == k).sum())
        dev = abs(in_train - round(0.75 * total))
        worst_dev = max(worst_dev, dev)
    assert worst_dev <= 1
    print(f"PASS data layer: save/load bit-exact, z-score mean err "
          f"{mean_err:.1e} / std err {std_err:.1e}, stratified split within "
          f"{worst_dev} of proportional")
