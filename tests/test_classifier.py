import struct
import tracemalloc

import numpy as np
import pytest

from globalattn import tensor
from globalattn.classifier import (ClassifierModel, accuracy,
                                   classifier_forward, predict)
from globalattn.errors import ConfigError, ContractError, DataFormatError
from globalattn.gradcheck import finite_diff_grad, grad_discrepancy
from globalattn.serialize import load_model_checkpoint, save_model_checkpoint
from globalattn.tensor import (GradientTape, Tensor, backward, broadcast_mul,
                               conv2d, flatten, linear, maxpool2x2, relu,
                               softmax_cross_entropy)


def make_model(w=8, h=8, c=1, classes=3, stages=(4, 8), seed=0):
    return ClassifierModel(c, w, h, classes, stages,
                           rng=np.random.default_rng(seed))


def test_identical_inputs_give_identical_logit_rows():
    model = make_model()
    x = np.random.default_rng(0).standard_normal((1, 1, 8, 8))
    batch = Tensor(np.concatenate([x, x], axis=0))
    logits = classifier_forward(model, batch)
    assert np.array_equal(logits.data[0], logits.data[1])


def test_zero_input_zero_bias_gives_equal_logits():
    model = make_model()
    logits = classifier_forward(model, Tensor(np.zeros((2, 1, 8, 8))))
    assert np.array_equal(logits.data, np.zeros((2, 3)))


def test_pooling_arithmetic_head_sees_quarter_grid():
    model = make_model(w=8, h=8, stages=(4, 8))
    # 8x8 through two 2x2 pools -> 2x2 grid; head weight rows = 8*2*2
    assert model.params[-2].shape == (8 * 2 * 2, 3)


def test_indivisible_spatial_size_rejected_at_build():
    with pytest.raises(ConfigError):
        make_model(w=6, h=8, stages=(4, 8))  # 6 not divisible by 4


def test_permutation_equivariance():
    model = make_model(seed=3)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 1, 8, 8))
    logits = classifier_forward(model, Tensor(x)).data
    perm = rng.permutation(5)
    logits_perm = classifier_forward(model, Tensor(x[perm])).data
    assert np.array_equal(logits_perm, logits[perm])


def test_predict_examples():
    assert predict(Tensor([[0.1, 0.9]])) == [1]
    assert predict(Tensor([[0.5, 0.5]])) == [0]  # tie -> lowest index
    out = predict(Tensor([[1.0, 0.0], [0.0, 1.0], [0.3, 0.3]]))
    assert out == [0, 1, 0]


def test_accuracy_examples():
    assert accuracy([0] * 8 + [1] * 2, [0] * 10) == 80.0
    assert accuracy([1, 2, 0], [1, 2, 0]) == 100.0
    assert accuracy([1, 1, 1], [0, 0, 0]) == 0.0
    with pytest.raises(ContractError):
        accuracy([0, 1], [0])


def test_attention_transparency_with_all_ones_map():
    """An all-ones map leaves loss and parameter gradients bitwise equal to
    running the classifier without the multiply."""
    model = make_model(seed=5)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 1, 8, 8))
    labels = [0, 1, 2, 0]

    with GradientTape() as tape:
        weighted = broadcast_mul(Tensor(x), Tensor(np.ones((1, 1, 8, 8))))
        loss_a = softmax_cross_entropy(classifier_forward(model, weighted),
                                       labels)
    backward(loss_a, tape)
    grads_a = [p.grad.copy() for p in model.params]
    tape.clear()

    with GradientTape() as tape:
        loss_b = softmax_cross_entropy(
            classifier_forward(model, Tensor(x)), labels)
    backward(loss_b, tape)
    grads_b = [p.grad.copy() for p in model.params]
    tape.clear()

    assert loss_a.item() == loss_b.item()
    for ga, gb in zip(grads_a, grads_b):
        assert np.array_equal(ga, gb)


def test_parameter_gradients_match_finite_differences():
    model = make_model(w=4, h=4, stages=(4,), seed=7)
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((2, 1, 4, 4)))
    labels = [0, 2]

    def build():
        return softmax_cross_entropy(classifier_forward(model, x), labels)

    with GradientTape() as tape:
        loss = build()
    backward(loss, tape)
    for p in model.params:
        analytic = p.grad.copy()
        numeric = finite_diff_grad(lambda _: build().item(), p, 1e-5)
        assert grad_discrepancy(analytic, numeric, rel_tol=1e-5) <= 1e-5
    tape.clear()


def test_forward_equals_relu_before_pool_bitwise():
    """Stages pool before their ReLU; logits and every parameter gradient
    equal a conv -> ReLU -> pool forward bit for bit."""
    model = make_model(w=8, h=12, stages=(4, 8), seed=3)
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((3, 1, 8, 12)))
    labels = [0, 2, 1]

    def conv_relu_pool(x):
        for i in range(len(model.stages)):
            x = maxpool2x2(relu(conv2d(x, *model.params[2 * i:2 * i + 2])))
        return linear(flatten(x), *model.params[-2:])

    results = []
    for forward in (lambda x: classifier_forward(model, x), conv_relu_pool):
        with GradientTape() as tape:
            logits = forward(x)
            loss = softmax_cross_entropy(logits, labels)
        backward(loss, tape)
        results.append((logits.data, [p.grad.copy() for p in model.params]))
        tape.clear()
    (logits_a, grads_a), (logits_b, grads_b) = results
    assert logits_a.tobytes() == logits_b.tobytes()
    for ga, gb in zip(grads_a, grads_b):
        assert ga.tobytes() == gb.tobytes()


def test_taped_step_keeps_only_what_its_backward_reads():
    # a tape that kept every record's input and output held 25.6 MB after
    # this forward and peaked at 55.8 MB in the backward
    model = make_model(w=64, h=64, c=3, stages=(8, 16), seed=5)
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((32, 3, 64, 64)))
    labels = rng.integers(0, 3, 32)

    def step():
        with GradientTape() as tape:
            loss = softmax_cross_entropy(classifier_forward(model, x), labels)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(loss, tape)
        peak = tracemalloc.get_traced_memory()[1]
        tape.clear()
        return held, peak

    step()  # first-call allocations (memoised tap runs, grads) do not count
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        held, peak = step()
    finally:
        tracemalloc.stop()
    # the ReLU outputs that the next layers read (3.1 MB), their masks and
    # the pool choices
    assert held - start < 8e6
    assert peak - start < 28e6


def test_backward_frees_each_layer_once_it_has_replayed():
    # with every rule kept until tape.clear(), the first conv's backward
    # ran beside the saved arrays of every later layer: 19.0 MB
    model = make_model(w=64, h=64, c=3, stages=(8, 16), seed=5)
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((32, 3, 64, 64)), requires_grad=True)
    labels = rng.integers(0, 3, 32)

    def step():
        with GradientTape() as tape:
            loss = softmax_cross_entropy(classifier_forward(model, x), labels)
        tracemalloc.reset_peak()
        backward(loss, tape)
        peak = tracemalloc.get_traced_memory()[1]
        tape.clear()
        return peak

    step()  # first-call allocations (memoised tap runs, grads) do not count
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        peak = step()
    finally:
        tracemalloc.stop()
    assert peak - start < 16e6


def test_only_a_taped_forward_keeps_pool_choices(monkeypatch):
    model = make_model()
    x = Tensor(np.random.default_rng(9).standard_normal((2, 1, 8, 8)))
    choices = []
    pool_choice = tensor._pool_choice

    def spy(*args):
        choices.append(args[0].shape)
        return pool_choice(*args)

    monkeypatch.setattr(tensor, "_pool_choice", spy)
    classifier_forward(model, x)
    assert choices == []
    with GradientTape():
        classifier_forward(model, x)
    assert choices == [(2, 4, 4, 4), (2, 8, 2, 2)]


def test_classifier_checkpoint_roundtrip(tmp_path):
    model = make_model(seed=9)
    path = tmp_path / "clf.ckpt"
    save_model_checkpoint(model, path)
    back = load_model_checkpoint(ClassifierModel, path)
    assert back.stages == model.stages
    x = Tensor(np.random.default_rng(10).standard_normal((2, 1, 8, 8)))
    a = classifier_forward(model, x).data
    b = classifier_forward(back, x).data
    assert np.allclose(a, b, atol=1e-5)


CLF_HEADER = (b"kind = classifier\nin_channels = 1\nwidth = 8\nheight = 8\n"
              b"num_classes = 3\nstages = 4,8\ntensors = 6\n")


@pytest.mark.parametrize("header", [
    CLF_HEADER.replace(b"num_classes = 3\n", b""),
    CLF_HEADER.replace(b"width = 8", b"width = 8.5"),
    CLF_HEADER.replace(b"classifier", b"classifi\xffr"),
], ids=["missing_field", "non_integer_field", "not_utf8"])
def test_classifier_checkpoint_bad_header_is_format_error(tmp_path, header):
    path = tmp_path / "clf.ckpt"
    save_model_checkpoint(make_model(), path)
    raw = path.read_bytes()
    assert raw[4:4 + len(CLF_HEADER)] == CLF_HEADER
    path.write_bytes(struct.pack("<I", len(header)) + header
                     + raw[4 + len(CLF_HEADER):])
    with pytest.raises(DataFormatError):
        load_model_checkpoint(ClassifierModel, path)
