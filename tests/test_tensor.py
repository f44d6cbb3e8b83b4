import itertools
import math
import tracemalloc

import numpy as np
import pytest

from globalattn import tensor
from globalattn.errors import ConfigError, ContractError
from globalattn.gradcheck import finite_diff_grad, grad_discrepancy
from globalattn.tensor import (GradientTape, Tensor, add, backward,
                               broadcast_mul, concat_channels, conv2d,
                               conv_params, flatten, l1_mean, linear,
                               maxpool2x2, mul, relu, reshape, scale, sigmoid,
                               softmax_cross_entropy, tensor_sum)

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import conv2d_reference, maxpool2x2_reference


def fd_check(build, params, h=1e-5, tol=1e-6):
    """Backward vs central differences on a freshly built graph."""
    with GradientTape() as tape:
        loss = build()
    backward(loss, tape)
    for p in params:
        analytic = p.grad.copy()
        numeric = finite_diff_grad(lambda _: build().item(), p, h)
        assert grad_discrepancy(analytic, numeric, rel_tol=tol) <= tol
    tape.clear()


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def test_conv_zero_input_gives_zero_output():
    x = Tensor(np.zeros((1, 1, 3, 3)))
    k = Tensor(np.random.default_rng(0).standard_normal((1, 1, 3, 3)))
    out = conv2d(x, k, Tensor(np.zeros(1)))
    assert out.shape == (1, 1, 3, 3)
    assert np.array_equal(out.data, np.zeros((1, 1, 3, 3)))


def test_conv_center_one_all_ones_kernel():
    # every 3x3 window around each output position contains the single 1
    x = np.zeros((1, 1, 3, 3))
    x[0, 0, 1, 1] = 1.0
    out = conv2d(Tensor(x), Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)))
    assert np.array_equal(out.data, np.ones((1, 1, 3, 3)))
    ref = conv2d_reference(x, np.ones((1, 1, 3, 3)), np.zeros(1), 1, 1)
    assert np.array_equal(out.data, ref)


def test_conv_preserves_spatial_size_for_stacked_input():
    nc, w, h, kk = 6, 5, 7, 4
    x = Tensor(np.random.default_rng(1).standard_normal((1, nc, w, h)))
    kernel = Tensor(np.random.default_rng(2).standard_normal((kk, nc, 3, 3)))
    out = conv2d(x, kernel, Tensor(np.zeros(kk)))
    assert out.shape == (1, kk, w, h)


# conv2d uses im2col when Cin < Cout and one GEMM over the stacked taps
# otherwise; W != H catches a row/column mix-up in the tap offsets, and
# (6, 3) stacks far more kernel rows (k*k*Cout) than input channels
CONV_CHANNELS = ((3, 4), (5, 2), (4, 4), (6, 3))


def test_conv_matches_reference_on_random_cases():
    rng = np.random.default_rng(3)
    for cin, cout in CONV_CHANNELS:
        for k in (1, 3, 5, 7):
            x = rng.standard_normal((2, cin, 7, 6))
            kern = rng.standard_normal((cout, cin, k, k))
            bias = rng.standard_normal(cout)
            out = conv2d(Tensor(x), Tensor(kern), Tensor(bias))
            ref = conv2d_reference(x, kern, bias, padding=k // 2)
            assert np.allclose(out.data, ref, rtol=1e-12, atol=1e-12)


# conv2d pads k // 2, so size + 2 * padding - k + 1 is the input size
@pytest.mark.parametrize("padding, k", [(0, 1), (1, 3), (2, 5), (3, 7)])
@pytest.mark.parametrize("batch", [1, 2])
def test_conv_output_shape_formula(batch, padding, k):
    w, h = 11, 9
    x = Tensor(np.zeros((batch, 2, w, h)))
    kern = Tensor(np.zeros((3, 2, k, k)))
    out = conv2d(x, kern, Tensor(np.zeros(3)))
    assert out.shape == (batch, 3, w + 2 * padding - k + 1,
                         h + 2 * padding - k + 1)
    assert out.shape == (batch, 3, w, h)


def test_conv_channel_mismatch_raises():
    x = Tensor(np.zeros((1, 3, 4, 4)))
    kern = Tensor(np.zeros((2, 4, 3, 3)))
    with pytest.raises(ContractError):
        conv2d(x, kern, Tensor(np.zeros(2)))


def test_conv_even_kernel_raises():
    x = Tensor(np.zeros((1, 1, 4, 4)))
    with pytest.raises(ConfigError):
        conv2d(x, Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros(1)))


def test_conv_linear_in_input():
    rng = np.random.default_rng(4)
    kern = Tensor(rng.standard_normal((2, 2, 3, 3)))
    bias = Tensor(np.zeros(2))
    a = rng.standard_normal((1, 2, 5, 5))
    b = rng.standard_normal((1, 2, 5, 5))
    out_sum = conv2d(Tensor(a + b), kern, bias).data
    out_a = conv2d(Tensor(a), kern, bias).data
    out_b = conv2d(Tensor(b), kern, bias).data
    assert np.allclose(out_sum, out_a + out_b, rtol=1e-12, atol=1e-12)


# sum(conv * conv) is quadratic in every operand, so central differences
# have no truncation error and a larger step only cuts their rounding
CONV_FD_STEP = 1e-3


def test_conv_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    for cin, cout in CONV_CHANNELS:
        for k in (1, 3, 5):
            x = Tensor(rng.standard_normal((2, cin, 6, 5)), requires_grad=True)
            kern = Tensor(rng.standard_normal((cout, cin, k, k)) * 0.3,
                          requires_grad=True)
            bias = Tensor(rng.standard_normal(cout) * 0.1, requires_grad=True)
            fd_check(lambda: tensor_sum(mul(conv2d(x, kern, bias),
                                            conv2d(x, kern, bias))),
                     [x, kern, bias], h=CONV_FD_STEP)


def test_conv_per_tap_backward_skips_input_without_grad():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((2, 5, 6, 5)))
    kern = Tensor(rng.standard_normal((2, 5, 3, 3)) * 0.3, requires_grad=True)
    bias = Tensor(rng.standard_normal(2) * 0.1, requires_grad=True)
    fd_check(lambda: tensor_sum(mul(conv2d(x, kern, bias),
                                    conv2d(x, kern, bias))),
             [kern, bias], h=CONV_FD_STEP)
    assert x.grad is None


def test_conv_per_tap_peak_memory_below_twice_input():
    # im2col alone would hold 9x the input at k = 3
    x = Tensor(np.random.default_rng(7).standard_normal((1, 512, 24, 20)))
    kern, bias = conv_params(np.random.default_rng(8), 8, 512, 3)
    tracemalloc.start()
    try:
        with GradientTape() as tape:
            loss = tensor_sum(conv2d(x, kern, bias))
        backward(loss, tape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kern.grad is not None and x.grad is None
    assert peak < 2 * x.data.nbytes


def test_conv_taps_read_input_in_place():
    # a padded copy alone would be 1.2x the input at this shape
    x = Tensor(np.random.default_rng(7).standard_normal((1, 512, 24, 20)))
    kern, bias = conv_params(np.random.default_rng(8), 8, 512, 3)
    tracemalloc.start()
    try:
        with GradientTape() as tape:
            loss = tensor_sum(conv2d(x, kern, bias))
        backward(loss, tape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kern.grad is not None and x.grad is None
    assert peak < x.data.nbytes / 2


# planes no wider than k // 2 in W or H: some taps' shifts reach past the
# whole plane, so their clipped regions are empty
@pytest.mark.parametrize("w, h", [(1, 3), (2, 1), (3, 2)])
@pytest.mark.parametrize("k", [5, 7])
@pytest.mark.parametrize("cin, cout", [(2, 3), (3, 2)])
@pytest.mark.parametrize("input_grad", [True, False])
def test_conv_on_planes_smaller_than_kernel(w, h, k, cin, cout, input_grad):
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((2, cin, w, h)), requires_grad=input_grad)
    kern = Tensor(rng.standard_normal((cout, cin, k, k)) * 0.3,
                  requires_grad=True)
    bias = Tensor(rng.standard_normal(cout) * 0.1, requires_grad=True)
    ref = conv2d_reference(x.data, kern.data, bias.data, padding=k // 2)
    assert np.allclose(conv2d(x, kern, bias).data, ref,
                       rtol=1e-12, atol=1e-12)
    fd_check(lambda: tensor_sum(mul(conv2d(x, kern, bias),
                                    conv2d(x, kern, bias))),
             [x, kern, bias] if input_grad else [kern, bias],
             h=CONV_FD_STEP)
    if not input_grad:
        assert x.grad is None


# long, thin planes: a horizontal tap shift wraps a column of the
# flattened plane round to a neighbouring row, and those entries must read 0
@pytest.mark.parametrize("w, h", [(9, 2), (2, 9), (5, 3)])
@pytest.mark.parametrize("k", [3, 5, 7])
@pytest.mark.parametrize("cin, cout", [(2, 3), (3, 2)])
def test_conv_on_long_thin_planes(w, h, k, cin, cout):
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((2, cin, w, h)), requires_grad=True)
    kern = Tensor(rng.standard_normal((cout, cin, k, k)) * 0.3,
                  requires_grad=True)
    bias = Tensor(rng.standard_normal(cout) * 0.1, requires_grad=True)
    ref = conv2d_reference(x.data, kern.data, bias.data, padding=k // 2)
    assert np.allclose(conv2d(x, kern, bias).data, ref,
                       rtol=1e-12, atol=1e-12)
    fd_check(lambda: tensor_sum(mul(conv2d(x, kern, bias),
                                    conv2d(x, kern, bias))),
             [x, kern, bias], h=CONV_FD_STEP)


def test_conv_tape_holds_no_lowered_copy_of_the_input():
    # the k*k-times im2col copy would hold 3.4x the output at this shape
    x = Tensor(np.random.default_rng(11).standard_normal((32, 3, 32, 32)))
    kern, bias = conv_params(np.random.default_rng(12), 8, 3, 3)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with GradientTape() as tape:
            out = conv2d(x, kern, bias)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(tape) == 1
    assert held < 1.5 * out.data.nbytes


def test_tap_runs_are_memoised_and_immutable():
    runs = tensor._tap_runs(3, 7, 6)
    assert tensor._tap_runs(3, 7, 6) is runs
    assert isinstance(runs, tuple) and len(runs) == 9
    assert all(isinstance(run, tuple) for run in runs)


def test_conv_outputs_do_not_depend_on_cached_tap_runs():
    rng = np.random.default_rng(13)

    def run(cin, cout):
        x = Tensor(rng.standard_normal((2, cin, 7, 6)), requires_grad=True)
        kern, bias = conv_params(rng, cout, cin, 3)
        with GradientTape() as tape:
            loss = tensor_sum(mul(conv2d(x, kern, bias), conv2d(x, kern, bias)))
        backward(loss, tape)
        return loss.data.tobytes() + kern.grad.tobytes() + x.grad.tobytes()

    for cin, cout in ((2, 3), (3, 2)):
        tensor._tap_runs.cache_clear()
        state = rng.bit_generator.state
        fresh = run(cin, cout)
        rng.bit_generator.state = state
        assert run(cin, cout) == fresh


def _lowered_image_bytes(cin, k, w, h):
    return cin * k * k * w * h * 8


# (batch, budget in images' lowerings, expected chunk sizes): uneven near-
# equal chunks, a budget below one image's lowering, and a single image
CHUNKINGS = ((5, 2.0, [2, 2, 1]), (3, 0.5, [1, 1, 1]), (1, 0.5, [1]))


@pytest.mark.parametrize("b, images, sizes", CHUNKINGS)
@pytest.mark.parametrize("input_grad", [True, False])
def test_conv_im2col_chunks_match_one_chunk_bitwise(monkeypatch, b, images,
                                                    sizes, input_grad):
    cin, cout, k, w, h = 2, 3, 3, 6, 5
    rng = np.random.default_rng(14)
    x = Tensor(rng.standard_normal((b, cin, w, h)), requires_grad=input_grad)
    kern = Tensor(rng.standard_normal((cout, cin, k, k)) * 0.3,
                  requires_grad=True)
    bias = Tensor(rng.standard_normal(cout) * 0.1, requires_grad=True)
    params = [x, kern, bias] if input_grad else [kern, bias]

    def loss():
        return tensor_sum(mul(conv2d(x, kern, bias), conv2d(x, kern, bias)))

    def outputs():
        with GradientTape() as tape:
            out = conv2d(x, kern, bias)
            total = tensor_sum(mul(out, out))
        backward(total, tape)
        got = [out.data.tobytes()] + [p.grad.tobytes() for p in params]
        tape.clear()
        return got

    whole = outputs()
    lowered = []
    lower = tensor._lower

    def spy(xs, runs, hh, out):
        lowered.append(len(xs))
        lower(xs, runs, hh, out)

    monkeypatch.setattr(tensor, "_lower", spy)
    monkeypatch.setattr(tensor, "_LOWERED_BYTES",
                        int(images * _lowered_image_bytes(cin, k, w, h)))
    assert outputs() == whole
    assert lowered == sizes + sizes  # the forward, then dK's rebuild
    ref = conv2d_reference(x.data, kern.data, bias.data, padding=k // 2)
    assert np.allclose(conv2d(x, kern, bias).data, ref,
                       rtol=1e-12, atol=1e-12)
    fd_check(loss, params, h=CONV_FD_STEP)
    if not input_grad:
        assert x.grad is None


def test_conv_im2col_lowers_at_most_its_budget_at_a_time():
    # the whole-batch lowering alone would be 28.3 MB at this shape
    x = Tensor(np.random.default_rng(15).standard_normal((32, 3, 64, 64)),
               requires_grad=True)
    kern, bias = conv_params(np.random.default_rng(16), 8, 3, 3)
    tracemalloc.start()
    try:
        with GradientTape() as tape:
            out = conv2d(x, kern, bias)
            loss = tensor_sum(out)
        backward(loss, tape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kern.grad is not None and x.grad is not None
    # out and its gradient, the input gradient and its summing buffer, and
    # one chunk of the lowering, which runs at most one image over budget
    chunk = tensor._LOWERED_BYTES + _lowered_image_bytes(3, 3, 64, 64)
    assert peak < 2 * out.data.nbytes + 2 * x.data.nbytes + chunk


def test_conv_params_draw_bounded_kernel_and_zero_bias():
    kernel, bias = conv_params(np.random.default_rng(0), 4, 3, 5)
    expected = np.random.default_rng(0).uniform(
        -1.0 / np.sqrt(75), 1.0 / np.sqrt(75), size=(4, 3, 5, 5))
    assert np.array_equal(kernel.data, expected)
    assert np.array_equal(bias.data, np.zeros(4))
    assert kernel.requires_grad and bias.requires_grad


# ---------------------------------------------------------------------------
# relu / sigmoid
# ---------------------------------------------------------------------------

def test_relu_examples():
    assert np.array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    assert np.array_equal(relu(Tensor([-3.0, -0.5])).data, [0.0, 0.0])


def test_relu_subgradient_zero_at_zero():
    x = Tensor([-1.0, 2.0], requires_grad=True)
    with GradientTape() as tape:
        loss = tensor_sum(relu(x))
    backward(loss, tape)
    assert np.array_equal(x.grad, [0.0, 1.0])
    x0 = Tensor([0.0], requires_grad=True)
    with GradientTape() as tape:
        loss = tensor_sum(relu(x0))
    backward(loss, tape)
    assert np.array_equal(x0.grad, [0.0])


def test_sigmoid_at_zero():
    assert sigmoid(Tensor([0.0])).data[0] == 0.5


@pytest.mark.parametrize("x", [-3.0, 0.7, 12.0])
def test_sigmoid_symmetry(x):
    s = sigmoid(Tensor([x])).data[0]
    s_neg = sigmoid(Tensor([-x])).data[0]
    assert s == pytest.approx(1.0 - s_neg, abs=1e-15)


def test_sigmoid_large_negative_matches_high_precision():
    mp = pytest.importorskip("mpmath")
    out = sigmoid(Tensor([-50.0])).data[0]
    assert 0.0 < out <= 1e-20
    expected = float(1 / (1 + mp.exp(mp.mpf(50))))
    assert out == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("x", [-1e4, -100.0, 100.0, 1e4])
def test_sigmoid_finite_at_large_magnitudes(x):
    out = sigmoid(Tensor([x])).data[0]
    assert np.isfinite(out)
    assert 0.0 <= out <= 1.0


def test_sigmoid_backward():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal(7), requires_grad=True)
    fd_check(lambda: tensor_sum(mul(sigmoid(x), sigmoid(x))), [x])


# ---------------------------------------------------------------------------
# softmax cross-entropy
# ---------------------------------------------------------------------------

def test_cross_entropy_uniform_logits():
    loss = softmax_cross_entropy(Tensor([[0.0, 0.0, 0.0]]), [1])
    assert loss.item() == pytest.approx(math.log(3.0), rel=1e-12)


def test_cross_entropy_extreme_logits_no_overflow():
    loss = softmax_cross_entropy(Tensor([[1000.0, 0.0]]), [0])
    assert np.isfinite(loss.item())
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_batch_mean():
    row_a, row_b = [1.0, -2.0, 0.5], [0.0, 0.3, -1.0]
    la = softmax_cross_entropy(Tensor([row_a]), [2]).item()
    lb = softmax_cross_entropy(Tensor([row_b]), [0]).item()
    both = softmax_cross_entropy(Tensor([row_a, row_b]), [2, 0]).item()
    assert both == pytest.approx((la + lb) / 2.0, rel=1e-14)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ContractError):
        softmax_cross_entropy(Tensor([[0.0, 0.0]]), [2])
    with pytest.raises(ContractError):
        softmax_cross_entropy(Tensor([[0.0, 0.0]]), [-1])


def test_cross_entropy_backward():
    rng = np.random.default_rng(7)
    logits = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    fd_check(lambda: softmax_cross_entropy(logits, [0, 3, 1]), [logits])


def test_cross_entropy_finite_at_large_magnitudes():
    loss = softmax_cross_entropy(Tensor([[1e4, -1e4, 0.0]]), [1])
    assert np.isfinite(loss.item())


# ---------------------------------------------------------------------------
# broadcast multiply
# ---------------------------------------------------------------------------

def test_broadcast_mul_identity_and_zero_maps():
    rng = np.random.default_rng(8)
    images = Tensor(rng.standard_normal((2, 3, 4, 4)))
    ones = Tensor(np.ones((1, 1, 4, 4)))
    assert np.array_equal(broadcast_mul(images, ones).data, images.data)
    zeros = Tensor(np.zeros((1, 1, 4, 4)))
    assert np.array_equal(broadcast_mul(images, zeros).data,
                          np.zeros((2, 3, 4, 4)))


def test_broadcast_mul_map_gradient_sums_over_copies():
    # B=2, C=3 all-ones images, upstream gradient of ones: six copies sum
    images = Tensor(np.ones((2, 3, 2, 2)))
    wmap = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
    with GradientTape() as tape:
        loss = tensor_sum(broadcast_mul(images, wmap))
    backward(loss, tape)
    assert np.array_equal(wmap.grad, np.full((1, 1, 2, 2), 6.0))
    numeric = finite_diff_grad(
        lambda _: tensor_sum(broadcast_mul(images, wmap)).item(), wmap, 1e-4)
    assert np.allclose(numeric, 6.0, rtol=1e-8)


def test_broadcast_mul_spatial_mismatch():
    with pytest.raises(ContractError):
        broadcast_mul(Tensor(np.ones((1, 1, 4, 4))),
                      Tensor(np.ones((1, 1, 3, 4))))


def test_broadcast_mul_is_bilinear():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((2, 2, 3, 3))
    b = rng.standard_normal((2, 2, 3, 3))
    m1 = rng.standard_normal((1, 1, 3, 3))
    m2 = rng.standard_normal((1, 1, 3, 3))
    left = broadcast_mul(Tensor(a + b), Tensor(m1)).data
    right = (broadcast_mul(Tensor(a), Tensor(m1)).data
             + broadcast_mul(Tensor(b), Tensor(m1)).data)
    assert np.allclose(left, right, rtol=1e-13, atol=1e-13)
    left = broadcast_mul(Tensor(a), Tensor(m1 + m2)).data
    right = (broadcast_mul(Tensor(a), Tensor(m1)).data
             + broadcast_mul(Tensor(a), Tensor(m2)).data)
    assert np.allclose(left, right, rtol=1e-13, atol=1e-13)


def test_broadcast_mul_backward_both_sides():
    rng = np.random.default_rng(9)
    images = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
    wmap = Tensor(rng.standard_normal((1, 1, 3, 3)), requires_grad=True)
    fd_check(lambda: tensor_sum(mul(broadcast_mul(images, wmap),
                                    broadcast_mul(images, wmap))),
             [images, wmap], h=1e-3)


# ---------------------------------------------------------------------------
# l1 mean
# ---------------------------------------------------------------------------

def test_l1_mean_examples():
    assert l1_mean(Tensor([1.0, -1.0, 2.0])).item() == pytest.approx(4.0 / 3.0)
    assert l1_mean(Tensor(np.zeros(5))).item() == 0.0


def test_l1_mean_of_unit_interval_values_stays_in_unit_interval():
    rng = np.random.default_rng(10)
    vals = rng.uniform(0.0, 1.0, size=(1, 1, 6, 6))
    out = l1_mean(Tensor(vals)).item()
    assert 0.0 <= out <= 1.0


def test_l1_mean_backward_sign_convention():
    x = Tensor([1.5, -2.0, 0.0], requires_grad=True)
    with GradientTape() as tape:
        loss = l1_mean(x)
    backward(loss, tape)
    assert np.array_equal(x.grad, [1 / 3, -1 / 3, 0.0])


# ---------------------------------------------------------------------------
# backward / tape semantics
# ---------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with GradientTape() as tape:
        loss = tensor_sum(x)
    backward(loss, tape)
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_square():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with GradientTape() as tape:
        loss = tensor_sum(mul(x, x))
    backward(loss, tape)
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_accumulates_over_multiple_consumers():
    x = Tensor([3.0], requires_grad=True)
    with GradientTape() as tape:
        loss = add(tensor_sum(mul(x, x)), tensor_sum(scale(x, 5.0)))
    backward(loss, tape)
    assert np.array_equal(x.grad, [2 * 3.0 + 5.0])


def test_first_gradient_is_a_fresh_buffer_without_negative_zeros():
    # add hands one upstream array to both operands; the ReLU's gradient
    # there is [-0.0, -1.0], stored as zeros + g stores it
    a = Tensor([-1.0, 2.0], requires_grad=True)
    b = Tensor([1.0, 1.0], requires_grad=True)
    with GradientTape() as tape:
        loss = tensor_sum(scale(relu(add(a, b)), -1.0))
    backward(loss, tape)
    assert not np.shares_memory(a.grad, b.grad)
    for grad in (a.grad, b.grad):
        assert np.array_equal(grad, [0.0, -1.0])
        assert not np.signbit(grad[0])


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with GradientTape() as tape:
        out = mul(x, x)
    with pytest.raises(ContractError):
        backward(out, tape)


def test_cleared_tape_zeroes_grad_buffers():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with GradientTape() as tape:
        loss = tensor_sum(mul(x, x))
    backward(loss, tape)
    assert np.any(x.grad != 0)
    tape.clear()
    assert np.array_equal(x.grad, [0.0, 0.0])
    assert len(tape) == 0


def test_cleared_tapes_give_a_reused_parameter_fresh_tape_gradients():
    rng = np.random.default_rng(9)
    kern, bias = conv_params(rng, 3, 2, 3)
    x = Tensor(rng.standard_normal((1, 2, 5, 4)))

    def grads():
        with GradientTape() as tape:
            loss = tensor_sum(relu(conv2d(relu(x), kern, bias)))
        backward(loss, tape)
        out = kern.grad.copy(), bias.grad.copy()
        tape.clear()
        return out

    fresh = grads()
    for _ in range(2):
        again = grads()
        for got, want in zip(again, fresh):
            assert got.tobytes() == want.tobytes()
    assert np.array_equal(kern.grad, np.zeros_like(kern.data))


def test_backward_drops_produced_gradients_and_adoption_changes_no_bit(
        monkeypatch):
    # both conv branches, the pool, the ReLU and broadcast_mul hand their
    # input gradients over; copying them instead must give the same bytes
    rng = np.random.default_rng(22)
    x = Tensor(rng.standard_normal((4, 2, 8, 8)), requires_grad=True)
    wmap = Tensor(rng.uniform(0.0, 1.0, (1, 1, 8, 8)), requires_grad=True)
    wide = conv_params(rng, 6, 2, 3)  # im2col
    thin = conv_params(rng, 3, 6, 3)  # stacked taps
    head = [Tensor(rng.standard_normal((12, 3)) * 0.3, requires_grad=True),
            Tensor(np.zeros(3), requires_grad=True)]
    leaves = [x, wmap, *wide, *thin, *head]

    def grads():
        with GradientTape() as tape:
            h = relu(maxpool2x2(conv2d(broadcast_mul(x, wmap), *wide)))
            h = relu(maxpool2x2(conv2d(h, *thin)))
            loss = add(softmax_cross_entropy(linear(flatten(h), *head),
                                             [0, 2, 1, 1]),
                       scale(l1_mean(wmap), 0.1))
        backward(loss, tape)
        assert len(tape) == 13
        assert all(rec.output.grad is None for rec in tape._records)
        assert h.grad is None and loss.grad is None
        got = [t.grad.tobytes() for t in leaves]
        tape.clear()
        return got

    adopted = grads()
    accumulate = tensor._accumulate
    monkeypatch.setattr(tensor, "_accumulate",
                        lambda s, g, fresh=False: accumulate(s, g))
    assert grads() == adopted


def test_tape_records_and_backward_rules_hold_no_tensor():
    # a Tensor held by a record or by a rule's closure would keep its data
    rng = np.random.default_rng(24)
    x = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
    wmap = Tensor(rng.uniform(0.0, 1.0, (1, 1, 4, 4)), requires_grad=True)
    wide = conv_params(rng, 3, 2, 3)  # im2col
    thin = conv_params(rng, 2, 6, 1)  # stacked taps
    head = [Tensor(rng.standard_normal((8, 3)), requires_grad=True),
            Tensor(np.zeros(3), requires_grad=True)]
    with GradientTape() as tape:
        m = sigmoid(mul(x, scale(x, 0.5)))
        h = relu(maxpool2x2(conv2d(broadcast_mul(m, wmap), *wide)))
        h = conv2d(concat_channels([h, h]), *thin)
        loss = add(softmax_cross_entropy(linear(flatten(h), *head), [0, 1]),
                   add(tensor_sum(m), l1_mean(wmap)))
    assert len(tape) == 16
    for rec in tape._records:
        held = [rec.output, *rec.inputs]
        held += [c.cell_contents for c in rec.backward_fn.__closure__ or ()]
        assert not any(isinstance(v, Tensor) for v in held), rec.backward_fn
    backward(loss, tape)
    assert all(t.grad is not None for t in (x, wmap, *wide, *thin, *head))


def test_gradients_handed_to_several_operands_or_as_views_are_copied():
    # add hands one array to both operands, here one operand twice;
    # concat_channels hands out slices of its gradient and reshape a view
    rng = np.random.default_rng(23)
    a, b, c, d = (Tensor(rng.standard_normal((2, n, 4, 4)), requires_grad=True)
                  for n in (3, 2, 1, 2))
    wa, wbc, wd = (rng.standard_normal(shape)
                   for shape in ((2, 3, 4, 4), (2, 3, 4, 4), (2, 32)))
    with GradientTape() as tape:
        terms = (mul(add(a, a), Tensor(wa)),
                 mul(concat_channels([b, c]), Tensor(wbc)),
                 mul(reshape(d, (2, 32)), Tensor(wd)))
        loss = add(add(tensor_sum(terms[0]), tensor_sum(terms[1])),
                   tensor_sum(terms[2]))
    backward(loss, tape)
    assert np.array_equal(a.grad, wa + wa)
    assert np.array_equal(b.grad, wbc[:, :2])
    assert np.array_equal(c.grad, wbc[:, 2:])
    assert np.array_equal(d.grad, wd.reshape(d.shape))
    grads = [t.grad for t in (a, b, c, d)]
    for i, grad in enumerate(grads):
        assert grad.base is None and grad.flags.c_contiguous
        assert not any(np.shares_memory(grad, other) for other in grads[i + 1:])


@pytest.mark.parametrize("op", ["relu", "maxpool2x2", "broadcast_mul"])
def test_adopted_gradient_stores_negative_zero_as_positive_zero(op):
    # a negative upstream gradient times a zero mask entry is -0.0
    x = Tensor([[[[-1.0, 2.0], [3.0, 1.0]]]], requires_grad=True)
    wmap = Tensor([[[[0.0, 1.0], [1.0, 0.0]]]])
    f = {"relu": relu, "maxpool2x2": maxpool2x2,
         "broadcast_mul": lambda t: broadcast_mul(t, wmap)}[op]
    with GradientTape() as tape:
        loss = tensor_sum(scale(f(x), -1.0))
    backward(loss, tape)
    zero = x.grad == 0.0
    assert zero.any() and not np.signbit(x.grad[zero]).any()


# ---------------------------------------------------------------------------
# pooling, linear, reshape, concat
# ---------------------------------------------------------------------------

def test_maxpool_forward_and_tie_rule():
    x = np.zeros((1, 1, 2, 2))
    x[0, 0] = [[1.0, 1.0], [1.0, 1.0]]  # four-way tie
    t = Tensor(x, requires_grad=True)
    with GradientTape() as tape:
        out = maxpool2x2(t)
        loss = tensor_sum(out)
    assert out.data[0, 0, 0, 0] == 1.0
    backward(loss, tape)
    expected = np.zeros((1, 1, 2, 2))
    expected[0, 0, 0, 0] = 1.0  # first entry wins the tie
    assert np.array_equal(t.grad, expected)


# a value set rich in ties, signed zeros included
TIE_VALUES = (-1.0, -0.0, 0.0, 0.5, 1.0)


def test_maxpool_matches_reference_bitwise_on_ties():
    # every one of the 5**4 windows over TIE_VALUES, so 4-, 3- and 2-way
    # ties sit in every combination of window positions
    rng = np.random.default_rng(14)
    b, c, w, h = 2, 8, 16, 10
    windows = np.array(list(itertools.product(TIE_VALUES, repeat=4)))
    extra = rng.choice(TIE_VALUES, size=(b * c * w * h // 4 - len(windows), 4))
    windows = rng.permutation(np.concatenate([windows, extra]))
    x = (windows.reshape(b, c, w // 2, h // 2, 2, 2)
         .transpose(0, 1, 2, 4, 3, 5).reshape(b, c, w, h))
    g = rng.standard_normal((b, c, w // 2, h // 2))
    t = Tensor(x, requires_grad=True)
    with GradientTape() as tape:
        out = maxpool2x2(t)
        loss = tensor_sum(mul(out, Tensor(g)))
    backward(loss, tape)
    ref_out, ref_grad = maxpool2x2_reference(x, g)
    assert out.data.tobytes() == ref_out.tobytes()
    assert t.grad.tobytes() == ref_grad.tobytes()


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(arrays(np.float64, st.tuples(st.integers(1, 2), st.integers(1, 3),
                                    st.sampled_from([2, 4, 6]),
                                    st.sampled_from([2, 4, 6])),
              elements=st.sampled_from(TIE_VALUES)))
def test_relu_commutes_with_maxpool_bitwise(x):
    results = []
    for first, second in ((maxpool2x2, relu), (relu, maxpool2x2)):
        t = Tensor(x, requires_grad=True)
        with GradientTape() as tape:
            out = second(first(t))
            loss = tensor_sum(out)
        backward(loss, tape)
        results.append((out.data, t.grad))
    (out_a, grad_a), (out_b, grad_b) = results
    assert np.array_equal(out_a, out_b)
    assert np.array_equal(grad_a, grad_b)


def test_maxpool_backward_matches_finite_differences():
    h = 1e-3
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((2, 2, 4, 6)), requires_grad=True)
    # a window whose top two entries lie within 2h could flip under a step
    windows = x.data.reshape(2, 2, 2, 2, 3, 2).transpose(0, 1, 2, 4, 3, 5)
    top2 = np.sort(windows.reshape(-1, 4), axis=1)[:, -2:]
    assert (top2[:, 1] - top2[:, 0]).min() >= 2 * h
    # the loss is quadratic in each coordinate, so the step adds no
    # truncation error
    fd_check(lambda: tensor_sum(mul(maxpool2x2(x), maxpool2x2(x))), [x], h=h)


def test_maxpool_odd_size_raises():
    with pytest.raises(ContractError):
        maxpool2x2(Tensor(np.zeros((1, 1, 3, 4))))


def test_linear_and_reshape_backward():
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((3, 2, 2, 2)), requires_grad=True)
    w = Tensor(rng.standard_normal((8, 4)) * 0.3, requires_grad=True)
    b = Tensor(rng.standard_normal(4) * 0.1, requires_grad=True)
    fd_check(lambda: softmax_cross_entropy(linear(flatten(x), w, b), [0, 3, 1]),
             [x, w, b])


def test_concat_channels_roundtrip_and_backward():
    rng = np.random.default_rng(13)
    a = Tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((1, 3, 3, 3)), requires_grad=True)
    out = concat_channels([a, b])
    assert out.shape == (1, 5, 3, 3)
    assert np.array_equal(out.data[:, :2], a.data)
    assert np.array_equal(out.data[:, 2:], b.data)
    fd_check(lambda: tensor_sum(mul(concat_channels([a, b]),
                                    concat_channels([a, b]))), [a, b], h=1e-3)


def test_reshape_is_pure_relabeling():
    x = Tensor(np.arange(12.0))
    out = reshape(x, (3, 4))
    assert np.array_equal(out.data.reshape(-1), x.data)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_finite_diff_sum_of_squares():
    x = Tensor([3.0])
    grad = finite_diff_grad(lambda t: float((t.data ** 2).sum()), x, 1e-4)
    assert grad[0] == pytest.approx(6.0, rel=1e-7)


def test_finite_diff_exact_for_linear_functions():
    x = Tensor([1.0, -2.0])
    coeffs = np.array([4.0, 0.25])
    f = lambda t: float(coeffs @ t.data)
    for h in (1e-2, 1e-5):
        grad = finite_diff_grad(f, x, h)
        assert np.allclose(grad, coeffs, rtol=1e-10)


def test_finite_diff_rejects_nonpositive_step():
    with pytest.raises(ContractError):
        finite_diff_grad(lambda t: 0.0, Tensor([1.0]), 0.0)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_forward_and_backward_bitwise_deterministic():
    def run():
        rng = np.random.default_rng(99)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)))
        kern = Tensor(rng.standard_normal((4, 3, 3, 3)) * 0.2,
                      requires_grad=True)
        bias = Tensor(np.zeros(4), requires_grad=True)
        with GradientTape() as tape:
            out = maxpool2x2(relu(conv2d(x, kern, bias)))
            loss = softmax_cross_entropy(linear(flatten(out),
                                                Tensor(np.ones((64, 2)) * 0.1,
                                                       requires_grad=True),
                                                Tensor(np.zeros(2))), [0, 1])
        backward(loss, tape)
        return loss.item(), kern.grad.copy(), out.data.copy()

    loss1, grad1, out1 = run()
    loss2, grad2, out2 = run()
    assert loss1 == loss2
    assert np.array_equal(grad1, grad2)
    assert np.array_equal(out1, out2)
