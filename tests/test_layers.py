"""Layer forward semantics against hand values and naive-loop oracles,
plus gradient behavior at the documented corner cases."""

import math

import numpy as np
import pytest

import compnet as cn
from compnet import (ConfigError, ConvParams, DataError, DenseParams,
                     NumericError, ShapeError, Tape, Tensor,
                     backward)
from gradcheck import from_array, grad_check, mul, reduce_sum
from naive_ref import (conv2d_input_grad_ref, conv2d_ref, dense_ref, fusion_ref,
                       maxpool2d_grad_ref, maxpool2d_ref)


# ---------------------------------------------------------------------------
# conv2d

def test_conv2d_hand_example():
    x = from_array(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
    params = ConvParams(from_array(np.ones((1, 1, 2, 2))),
                        from_array(np.zeros(1)))
    out = cn.conv2d(x, params)
    assert np.array_equal(out.data, [[[[12, 16], [24, 28]]]])


def test_conv2d_one_by_one_identity_kernel():
    x = from_array(np.random.default_rng(0).normal(size=(2, 1, 4, 4)))
    params = ConvParams(from_array(np.ones((1, 1, 1, 1))),
                        from_array(np.zeros(1)))
    assert np.array_equal(cn.conv2d(x, params).data, x.data)


def test_conv2d_matches_naive_loops():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 8, 8))
    kernels = rng.normal(size=(4, 3, 3, 3))
    bias = rng.normal(size=(4,))
    out = cn.conv2d(from_array(x),
                    ConvParams(from_array(kernels), from_array(bias))).data
    assert np.max(np.abs(out - conv2d_ref(x, kernels, bias))) <= 1e-12


@pytest.mark.parametrize("batch", [1, 7])
def test_conv2d_one_filter_one_by_one_kernel_over_channels(batch):
    rng = np.random.default_rng(10 + batch)
    x = rng.normal(size=(batch, 3, 5, 6))
    kernels = rng.normal(size=(1, 3, 1, 1))
    bias = rng.normal(size=(1,))
    out = cn.conv2d(from_array(x),
                    ConvParams(from_array(kernels), from_array(bias))).data
    assert out.shape == (batch, 1, 5, 6)
    assert np.max(np.abs(out - conv2d_ref(x, kernels, bias))) <= 1e-12


@pytest.mark.parametrize("x_shape, k_shape", [
    ((2, 3, 8, 8), (4, 3, 3, 3)),  # several channels and filters
    ((3, 2, 6, 9), (3, 2, 2, 4)),  # non-square image and kernel
])
def test_conv2d_input_gradient_matches_naive_loops(x_shape, k_shape):
    rng = np.random.default_rng(12)
    x = rng.normal(size=x_shape)
    kernels = rng.normal(size=k_shape)
    tape = Tape()
    xt = tape.watch(from_array(x))
    out = cn.conv2d(xt, ConvParams(from_array(kernels), from_array(np.zeros(k_shape[0]))))
    g = rng.normal(size=out.shape)
    grads = backward(reduce_sum(mul(out, from_array(g))))
    expected = conv2d_input_grad_ref(g, kernels, x_shape[2:])
    assert np.max(np.abs(grads[xt.node_id] - expected)) <= 1e-12


def test_conv2d_bias_shifts_each_filter():
    x = from_array(np.zeros((1, 1, 3, 3)))
    params = ConvParams(from_array(np.zeros((2, 1, 2, 2))),
                        from_array([1.5, -2.0]))
    out = cn.conv2d(x, params).data
    assert np.array_equal(out[0, 0], np.full((2, 2), 1.5))
    assert np.array_equal(out[0, 1], np.full((2, 2), -2.0))


def test_conv2d_shape_errors():
    params = ConvParams(from_array(np.ones((1, 2, 2, 2))),
                        from_array(np.zeros(1)))
    with pytest.raises(ShapeError):  # channel mismatch
        cn.conv2d(from_array(np.ones((1, 1, 4, 4))), params)
    small = ConvParams(from_array(np.ones((1, 1, 5, 5))),
                       from_array(np.zeros(1)))
    with pytest.raises(ShapeError):  # kernel larger than image
        cn.conv2d(from_array(np.ones((1, 1, 4, 4))), small)
    with pytest.raises(ShapeError):  # rank != 4
        cn.conv2d(from_array(np.ones((4, 4))), params)


# ---------------------------------------------------------------------------
# maxpool2d

def test_maxpool_hand_examples():
    x = from_array(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
    assert np.array_equal(cn.maxpool2d(x).data, [[[[4]]]])
    x16 = from_array(np.arange(1.0, 17.0).reshape(1, 1, 4, 4))
    assert np.array_equal(cn.maxpool2d(x16).data, [[[[6, 8], [14, 16]]]])


def test_maxpool_constant_ties_route_gradient_top_left():
    tape = Tape()
    x = tape.watch(from_array(np.ones((1, 1, 4, 4))))
    out = cn.maxpool2d(x)
    assert np.array_equal(out.data, np.ones((1, 1, 2, 2)))
    grads = backward(reduce_sum(out))
    expected = np.zeros((1, 1, 4, 4))
    expected[0, 0, 0::2, 0::2] = 1.0  # top-left corner of every 2x2 window
    assert np.array_equal(grads[x.node_id], expected)


def test_maxpool_matches_naive_loops():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 2, 8, 6))
    out = cn.maxpool2d(from_array(x)).data
    assert np.array_equal(out, maxpool2d_ref(x))


def test_maxpool_ties_route_gradient_to_the_first_maximum():
    # Windows (row-major) [1,5,5,5], [2,2,7,7], [0,-1,3,3] and [4,4,4,4]
    # tie away from the top-left corner, except the last.
    windows = np.array([[1, 5, 5, 5], [2, 2, 7, 7], [0, -1, 3, 3], [4, 4, 4, 4]],
                       dtype=float)
    x = windows.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(1, 1, 4, 4)
    tape = Tape()
    xt = tape.watch(from_array(x))
    out = cn.maxpool2d(xt)
    assert np.array_equal(out.data, [[[[5, 7], [3, 4]]]])
    g = np.arange(1.0, 5.0).reshape(1, 1, 2, 2)
    grads = backward(reduce_sum(mul(out, from_array(g))))
    expected = maxpool2d_grad_ref(x, g)
    assert expected[0, 0, 0, 1] == 1.0  # [1, 5, 5, 5] routes to (0, 1)
    assert expected[0, 0, 1, 2] == 2.0  # [2, 2, 7, 7] routes to (1, 0)
    assert np.array_equal(grads[xt.node_id], expected)


def test_maxpool_gradient_matches_loop_reference_on_ties():
    rng = np.random.default_rng(6)
    x = rng.integers(0, 3, size=(3, 2, 6, 8)).astype(float)  # many ties
    g = rng.normal(size=(3, 2, 3, 4))
    tape = Tape()
    xt = tape.watch(from_array(x))
    grads = backward(reduce_sum(mul(cn.maxpool2d(xt), from_array(g))))
    assert np.array_equal(grads[xt.node_id], maxpool2d_grad_ref(x, g))


def test_maxpool_reads_conv_output_layout_in_place():
    # conv2d returns a transposed view of its gemm result; pooling it must
    # give the same bits and routing as pooling a row-major copy.  Integer
    # images and kernels keep every conv output integer-valued, so windows
    # tie often.
    rng = np.random.default_rng(11)
    x = rng.integers(0, 2, size=(3, 2, 7, 9)).astype(float)
    params = ConvParams(from_array(rng.integers(-1, 2, size=(3, 2, 2, 2)).astype(float)),
                        from_array(np.zeros(3)))
    conv_out = cn.conv2d(from_array(x), params)
    assert not conv_out.data.flags.c_contiguous
    g = rng.normal(size=(3, 3, 3, 4))
    results = []
    for data in (conv_out.data, np.ascontiguousarray(conv_out.data)):
        tape = Tape()
        xt = tape.watch(Tensor(data))
        assert xt.data.flags.c_contiguous == (data is not conv_out.data)
        out = cn.maxpool2d(xt)
        grads = backward(reduce_sum(mul(out, from_array(g))))
        results.append((out.data, grads[xt.node_id]))
    (out_view, grad_view), (out_copy, grad_copy) = results
    assert out_view.tobytes() == out_copy.tobytes() == maxpool2d_ref(conv_out.data).tobytes()
    expected = maxpool2d_grad_ref(np.ascontiguousarray(conv_out.data), g)
    assert grad_view.tobytes() == grad_copy.tobytes() == expected.tobytes()


def test_pool_first_routes_a_leaky_relu_rounding_tie_to_the_true_maximum():
    # 0.01 * x rounds both top-row inputs to the same double, so after the
    # activation the window ties; before it, index 1 is strictly larger.
    x = np.array([[-7.323588919656446, -7.323588919656445],
                  [-30.0, -40.0]]).reshape(1, 1, 2, 2)
    assert x[0, 0, 0, 0] < x[0, 0, 0, 1]
    assert 0.01 * x[0, 0, 0, 0] == 0.01 * x[0, 0, 0, 1]
    grads = {}
    for order in ("pool_first", "relu_first"):
        tape = Tape()
        xt = tape.watch(from_array(x))
        if order == "pool_first":
            out = cn.leaky_relu(cn.maxpool2d(xt), 0.01)
        else:
            out = cn.maxpool2d(cn.leaky_relu(xt, 0.01))
        grads[order] = (out.data, backward(reduce_sum(out))[xt.node_id])
    assert grads["pool_first"][0].tobytes() == grads["relu_first"][0].tobytes()
    # The trunk pools first: the gradient reaches index 1, the true maximum.
    assert np.array_equal(grads["pool_first"][1].reshape(4), [0.0, 0.01, 0.0, 0.0])
    assert np.array_equal(grads["relu_first"][1].reshape(4), [0.01, 0.0, 0.0, 0.0])


def test_maxpool_rejects_odd_spatial_dims():
    with pytest.raises(ShapeError):
        cn.maxpool2d(from_array(np.ones((1, 1, 3, 4))))


# ---------------------------------------------------------------------------
# dense

def test_dense_hand_example():
    params = DenseParams(from_array(np.eye(2)), from_array([1, 1]))
    out = cn.dense(from_array([[1, 2]]), params)
    assert np.array_equal(out.data, [[2, 3]])


def test_dense_zero_weights_give_bias_rows():
    params = DenseParams(from_array(np.zeros((3, 2))), from_array([5, -1]))
    out = cn.dense(from_array(np.random.default_rng(3).normal(size=(4, 3))),
                   params)
    assert np.array_equal(out.data, np.tile([5.0, -1.0], (4, 1)))


def test_dense_matches_naive_loops():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 5))
    w = rng.normal(size=(5, 4))
    b = rng.normal(size=(4,))
    out = cn.dense(from_array(x), DenseParams(from_array(w), from_array(b))).data
    assert np.max(np.abs(out - dense_ref(x, w, b))) <= 1e-12


@pytest.mark.parametrize("layout", ["row-major", "transposed"])
def test_dense_reads_any_trailing_shape_as_its_row_major_rows(layout):
    # The trunk's [B, C, H, W] output enters dense as it is, in conv2d's
    # transposed layout too; the bytes are those of its row-major [B, C*H*W] copy.
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 2, 3, 3))
    w, b = rng.normal(size=(18, 4)), rng.normal(size=(4,))
    g = from_array(rng.normal(size=(2, 4)))  # the output gradient
    if layout == "transposed":
        x = np.ascontiguousarray(x.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
    runs = []
    for value in (Tensor(x), from_array(x.reshape(2, 18))):
        tape = Tape()
        tx, tw, tb = tape.watch(value), tape.watch(from_array(w)), tape.watch(from_array(b))
        out = cn.dense(tx, DenseParams(tw, tb))
        grads = backward(reduce_sum(mul(out, g)))
        runs.append([out.data, *(grads[t.node_id] for t in (tx, tw, tb))])
    (out, g_x, g_w, g_b), flat = runs
    assert g_x.shape == (2, 2, 3, 3)
    assert [a.tobytes() for a in (out, g_x.reshape(2, 18), g_w, g_b)] == \
        [a.tobytes() for a in flat]
    report = grad_check(
        lambda t: reduce_sum(mul(cn.dense(t, DenseParams(from_array(w), from_array(b))), g)),
        Tensor(x), step=1e-5, tol=1e-6)
    assert report.passed, f"max rel err {report.max_rel_err}"


def test_dense_width_mismatch():
    params = DenseParams(from_array(np.ones((5, 4))), from_array(np.zeros(4)))
    with pytest.raises(ShapeError):
        cn.dense(from_array(np.ones((2, 3))), params)


# ---------------------------------------------------------------------------
# leaky_relu

def test_leaky_relu_values():
    out = cn.leaky_relu(from_array([-2.0, 0.0, 3.0]), slope=0.01)
    assert np.array_equal(out.data, [-0.02, 0.0, 3.0])


def test_leaky_relu_gradient_including_origin():
    tape = Tape()
    x = tape.watch(from_array([-1.0, 0.0, 2.0]))
    grads = backward(reduce_sum(cn.leaky_relu(x)))
    # The kink at exactly 0 takes the positive side's derivative.
    assert np.array_equal(grads[x.node_id], [0.01, 1.0, 1.0])


@pytest.mark.parametrize("slope", [0.01, 0.5, 0.999])
def test_leaky_relu_is_bit_equal_to_the_branch_form(slope):
    tiny = np.finfo(np.float64).smallest_subnormal
    v = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, 1e-310, -1e-310,
                  -2.2250738585072014e-308, 1.5, -1.5, np.inf, -np.inf])
    out = cn.leaky_relu(from_array(v), slope=slope).data
    assert out.tobytes() == np.where(v >= 0, v, slope * v).tobytes()


def test_leaky_relu_slope_bounds():
    x = from_array([1.0])
    for slope in (0.0, 1.0, -0.5):
        with pytest.raises(ConfigError):
            cn.leaky_relu(x, slope=slope)


# ---------------------------------------------------------------------------
# concat_columns

def test_concat_columns_order_and_gradient():
    tape = Tape()
    a = tape.watch(from_array([[1, 2], [3, 4]]))
    b = tape.watch(from_array([[9], [8]]))
    out = cn.concat_columns(a, b)
    assert np.array_equal(out.data, [[1, 2, 9], [3, 4, 8]])
    weights = from_array(np.array([[1.0, 10.0, 100.0], [1.0, 10.0, 100.0]]))
    grads = backward(reduce_sum(mul(out, weights)))
    assert np.array_equal(grads[a.node_id], [[1, 10], [1, 10]])
    assert np.array_equal(grads[b.node_id], [[100], [100]])


def test_concat_columns_batch_mismatch():
    with pytest.raises(ShapeError):
        cn.concat_columns(from_array(np.ones((2, 2))), from_array(np.ones((3, 1))))


# ---------------------------------------------------------------------------
# fusion_weight_matrix

def test_fusion_hand_example():
    learned = from_array([[1, 2, 3, 4, 5, 6]])
    ones = from_array([[1, 1, 1]])
    assert np.array_equal(
        cn.fusion_weight_matrix(learned, 2, ones).data, [[6, 15]])


def test_fusion_one_hot_extracts_column():
    learned = from_array([[1, 2, 3, 4, 5, 6]])
    e1 = from_array([[0, 1, 0]])
    assert np.array_equal(cn.fusion_weight_matrix(learned, 2, e1).data,
                          [[2, 5]])


def test_fusion_zero_designed_gives_zero_scores():
    rng = np.random.default_rng(5)
    learned = from_array(rng.normal(size=(4, 6)))
    out = cn.fusion_weight_matrix(learned, 2,
                                  from_array(np.zeros((4, 3))))
    assert not out.data.any()


def test_fusion_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    learned0 = rng.normal(size=(2, 6))
    designed0 = rng.normal(size=(2, 3))

    rep_l = grad_check(
        lambda L: reduce_sum(cn.fusion_weight_matrix(L, 2,
                                                     from_array(designed0))),
        from_array(learned0), step=1e-5, tol=1e-6)
    assert rep_l.passed
    rep_d = grad_check(
        lambda D: reduce_sum(cn.fusion_weight_matrix(from_array(learned0),
                                                     2, D)),
        from_array(designed0), step=1e-5, tol=1e-6)
    assert rep_d.passed


def test_fusion_width_mismatch():
    with pytest.raises(ShapeError):
        cn.fusion_weight_matrix(from_array(np.ones((1, 7))), 2,
                                from_array(np.ones((1, 3))))


# ---------------------------------------------------------------------------
# cross_entropy

def test_cross_entropy_uniform_binary():
    loss = cn.cross_entropy(from_array([[0, 0]]), np.array([0]))
    assert abs(loss.item() - math.log(2)) <= 1e-12


def test_cross_entropy_shift_invariance():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(6, 3))
    labels = rng.integers(0, 3, size=6)
    base = cn.cross_entropy(from_array(logits), labels).item()
    shifted = cn.cross_entropy(from_array(logits + 17.5), labels).item()
    assert abs(base - shifted) <= 1e-12


def test_cross_entropy_matches_direct_formula():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(32, 4)) * 2
    labels = rng.integers(0, 4, size=32)
    from naive_ref import softmax_cross_entropy_ref
    loss = cn.cross_entropy(from_array(logits), labels).item()
    assert abs(loss - softmax_cross_entropy_ref(logits, labels)) <= 1e-10


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    labels = rng.integers(0, 3, size=4)
    rep = grad_check(lambda z: cn.cross_entropy(z, labels),
                     from_array(rng.normal(size=(4, 3))),
                     step=1e-5, tol=1e-6)
    assert rep.passed


def test_cross_entropy_label_validation():
    logits = from_array(np.zeros((2, 2)))
    with pytest.raises(DataError):
        cn.cross_entropy(logits, np.array([0.5, 1.0]))
    with pytest.raises(DataError):
        cn.cross_entropy(logits, np.array([0, 2]))
    with pytest.raises(DataError):
        cn.cross_entropy(logits, np.array([-1, 0]))


def test_cross_entropy_refuses_an_empty_batch():
    # As train_epoch and evaluate refuse an empty dataset; the label-range
    # check would otherwise reduce an empty array.
    with pytest.raises(DataError, match="empty batch"):
        cn.cross_entropy(cn.Tensor(np.zeros((0, 2))), np.zeros(0, np.int64))


def test_cross_entropy_rejects_non_finite_logits():
    bad = from_array(np.array([[np.inf, 0.0]]))
    with pytest.raises(NumericError):
        cn.cross_entropy(bad, np.array([0]))


# ---------------------------------------------------------------------------
# untracked calls

def test_untracked_trunk_ops_record_no_tape_entry():
    tape = Tape()
    watched = tape.watch(from_array([1.0]))
    mul(watched, watched)
    before = len(tape._entries)
    rng = np.random.default_rng(8)
    x = from_array(rng.normal(size=(2, 1, 6, 6)))
    params = ConvParams(from_array(rng.normal(size=(2, 1, 3, 3))),
                        from_array(np.zeros(2)))
    out = cn.maxpool2d(cn.leaky_relu(cn.conv2d(x, params)))
    assert not out.grad_tracked
    assert len(tape._entries) == before
