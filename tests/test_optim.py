import numpy as np
import pytest

from globalattn.errors import ContractError
from globalattn.optim import Adam
from globalattn.tensor import Tensor

from oracles import adam_reference_step


def test_zero_gradient_zero_state_leaves_parameters_unchanged():
    p = Tensor([1.0, -2.0], requires_grad=True)
    p.grad = np.zeros(2)
    Adam([p], lr=0.1).step()
    assert np.array_equal(p.data, [1.0, -2.0])


def test_single_step_matches_hand_recurrence():
    # p=1, grad=1, lr=0.1: the bias-corrected step is ~lr, so p -> ~0.9
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.ones(1)
    Adam([p], lr=0.1).step()
    expected, _, _ = adam_reference_step(1.0, 1.0, 0.0, 0.0, t=1, lr=0.1,
                                         b1=0.9, b2=0.999, eps=1e-8, wd=0.0)
    assert p.data[0] == pytest.approx(expected, rel=1e-15)
    assert p.data[0] == pytest.approx(0.9, abs=1e-8)


def test_weight_decay_shrinks_parameter_with_zero_gradient():
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.zeros(1)
    Adam([p], lr=0.01, weight_decay=0.1).step()
    assert p.data[0] < 1.0


def test_multi_step_sequence_matches_reference():
    rng = np.random.default_rng(0)
    p = Tensor([0.7], requires_grad=True)
    opt = Adam([p], lr=0.05, weight_decay=0.01)
    ref_p, ref_m, ref_v = 0.7, 0.0, 0.0
    for t in range(1, 8):
        g = float(rng.standard_normal())
        p.grad = np.array([g])
        opt.step()
        assert opt.t == t
        ref_p, ref_m, ref_v = adam_reference_step(
            ref_p, g, ref_m, ref_v, t, lr=0.05, b1=0.9, b2=0.999, eps=1e-8,
            wd=0.01)
        assert p.data[0] == pytest.approx(ref_p, rel=1e-13)
        assert opt.m[0][0] == pytest.approx(ref_m, rel=1e-13)
        assert opt.v[0][0] == pytest.approx(ref_v, rel=1e-13)


def test_missing_gradient_raises():
    p = Tensor([1.0], requires_grad=True)
    with pytest.raises(ContractError):
        Adam([p], lr=0.1).step()


def test_gradients_left_untouched_by_step():
    p = Tensor([2.0], requires_grad=True)
    p.grad = np.array([0.5])
    Adam([p], lr=0.1).step()
    assert np.array_equal(p.grad, [0.5])
