import numpy as np
import pytest
from conftest import grad_check

from petfuse import autodiff as ad
from petfuse.errors import ConfigError, NumericError, ShapeError


def test_matmul_identity():
    eye = np.eye(3)
    out = ad.matmul(ad.Tensor(eye), ad.Tensor(eye))
    assert np.array_equal(out.data, eye)


def test_matmul_annihilator():
    a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    z = ad.Tensor(np.zeros((2, 2)))
    assert np.array_equal(ad.matmul(a, z).data, np.zeros((2, 2)))


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))


def test_matmul_gradient_vs_finite_differences():
    rng = np.random.default_rng(7)
    a = ad.Tensor(rng.normal(0, 1, (4, 5)), requires_grad=True)
    b = ad.Tensor(rng.normal(0, 1, (5, 3)), requires_grad=True)
    w = rng.normal(0, 1, (4, 3))
    err = grad_check(lambda: ad.tsum(ad.mul(ad.matmul(a, b), w)), [a, b])
    assert err < 1e-6


def test_attention_single_key_returns_value():
    rng = np.random.default_rng(0)
    q = ad.Tensor(rng.normal(0, 1, (1, 4)))
    k = ad.Tensor(rng.normal(0, 1, (1, 4)))
    v = ad.Tensor(rng.normal(0, 1, (1, 4)))
    out = ad.softmax_attention(q, k, v, 0.5)
    assert np.allclose(out.data, v.data, atol=1e-12)


def test_attention_equal_scores_uniform_average():
    k = ad.Tensor(np.zeros((3, 4)))
    q = ad.Tensor(np.random.default_rng(1).normal(0, 1, (2, 4)))
    v = ad.Tensor(np.arange(12.0).reshape(3, 4))
    out = ad.softmax_attention(q, k, v, 0.5)
    assert np.allclose(out.data, v.data.mean(axis=0), atol=1e-12)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(3)
    q = ad.Tensor(rng.normal(0, 1, (3, 4)))
    k = ad.Tensor(rng.normal(0, 1, (5, 4)))
    weights = ad.softmax_rows(ad.mul(ad.matmul(q, k.t()), 0.5))
    assert np.allclose(weights.data.sum(axis=1), 1.0, atol=1e-12)


def test_attention_nonfinite_input():
    bad = ad.Tensor([[np.inf, 0.0]])
    ok = ad.Tensor([[1.0, 2.0]])
    with pytest.raises(NumericError):
        ad.softmax_attention(bad, ok, ok, 1.0)


def test_attention_gradient():
    rng = np.random.default_rng(11)
    q = ad.Tensor(rng.normal(0, 1, (2, 4)), requires_grad=True)
    k = ad.Tensor(rng.normal(0, 1, (2, 4)), requires_grad=True)
    v = ad.Tensor(rng.normal(0, 1, (2, 4)), requires_grad=True)
    w = rng.normal(0, 1, (2, 4))
    err = grad_check(lambda: ad.tsum(ad.mul(ad.softmax_attention(q, k, v, 0.5), w)),
                     [q, k, v])
    assert err < 1e-6


def test_layer_norm_constant_row_is_zero():
    out = ad.layer_norm(ad.Tensor([[5.0, 5.0, 5.0]]))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_already_normalized():
    out = ad.layer_norm(ad.Tensor([[1.0, -1.0]]))
    assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-5)


def test_layer_norm_statistics():
    rng = np.random.default_rng(5)
    out = ad.layer_norm(ad.Tensor(rng.normal(3, 2, (4, 32))))
    assert np.all(np.abs(out.data.mean(axis=1)) < 1e-9)
    assert np.all(np.abs(out.data.var(axis=1) - 1.0) < 1e-4)


def test_layer_norm_gradient():
    rng = np.random.default_rng(13)
    x = ad.Tensor(rng.normal(0, 1, (3, 6)), requires_grad=True)
    w = rng.normal(0, 1, (3, 6))
    assert grad_check(lambda: ad.tsum(ad.mul(ad.layer_norm(x), w)), [x]) < 1e-6


def test_dropout_p_zero_identity():
    x = ad.Tensor(np.ones((2, 3)))
    assert ad.dropout(x, 0.0, training=True) is x


def test_dropout_eval_identity():
    x = ad.Tensor(np.ones((2, 3)))
    assert ad.dropout(x, 0.1, training=False) is x


def test_dropout_invalid_p():
    with pytest.raises(ConfigError):
        ad.dropout(ad.Tensor([1.0, 2.0]), 1.0, training=True)
    with pytest.raises(ConfigError):
        ad.dropout(ad.Tensor([1.0, 2.0]), -0.1, training=True)


def test_dropout_training_needs_matching_uniform_draws():
    x = ad.Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        ad.dropout(x, 0.1, training=True)
    with pytest.raises(ShapeError):
        ad.dropout(x, 0.1, training=True, uniform=np.zeros((3, 2)))
    out = ad.dropout(x, 0.5, training=True, uniform=np.array([[0.2, 0.7, 0.5]] * 2))
    assert np.array_equal(out.data, [[0.0, 2.0, 2.0]] * 2)


def test_dropout_mean_preserved():
    p, n = 0.1, 100_000
    x = ad.Tensor(np.ones(n))
    out = ad.dropout(x, p, training=True, uniform=ad.make_rng(0, "drop").random(n))
    # survivor count is Binomial(n, 1-p); mean of output is within 3 sigma of 1
    sigma = np.sqrt(p * (1 - p) / n) / (1 - p)
    assert abs(out.data.mean() - 1.0) < 3 * sigma


def test_bce_uninformative_logits():
    z = ad.Tensor(np.zeros((4, 2)))
    y = np.array([[0, 1], [1, 0], [0, 1], [1, 0]], dtype=float)
    assert abs(float(ad.bce_with_logits(z, y).data) - np.log(2)) < 1e-12


def test_bce_confident_correct_goes_to_zero():
    z = ad.Tensor(np.full((1, 1), 50.0))
    assert float(ad.bce_with_logits(z, np.ones((1, 1))).data) < 1e-20


def test_bce_gradient():
    rng = np.random.default_rng(17)
    z = ad.Tensor(rng.normal(0, 2, (4, 3)), requires_grad=True)
    y = (rng.random((4, 3)) < 0.5).astype(float)
    assert grad_check(lambda: ad.bce_with_logits(z, y), [z]) < 1e-6


def test_forward_bit_reproducible():
    def run():
        rng = ad.make_rng(42, "forward")
        x = ad.Tensor(rng.normal(0, 1, (3, 8)))
        out = ad.dropout(ad.layer_norm(x), 0.2, training=True,
                         uniform=ad.make_rng(42, "mask").random((3, 8)))
        return out.data
    a, b = run(), run()
    assert np.array_equal(a, b)


def test_backward_linearity():
    rng = np.random.default_rng(23)
    w = rng.normal(0, 1, (3, 3))

    def grads_for(targets):
        x = ad.Tensor(w.copy(), requires_grad=True)
        total = None
        for t in targets:
            loss = ad.bce_with_logits(ad.matmul(x, ad.Tensor(np.eye(3))), t)
            total = loss if total is None else total + loss
        total.backward()
        return x.grad

    y1 = (rng.random((3, 3)) < 0.5).astype(float)
    y2 = (rng.random((3, 3)) < 0.5).astype(float)
    combined = grads_for([y1, y2])

    x = ad.Tensor(w.copy(), requires_grad=True)
    ad.bce_with_logits(ad.matmul(x, ad.Tensor(np.eye(3))), y1).backward()
    g1 = x.grad.copy()
    x = ad.Tensor(w.copy(), requires_grad=True)
    ad.bce_with_logits(ad.matmul(x, ad.Tensor(np.eye(3))), y2).backward()
    g2 = x.grad.copy()
    assert np.allclose(combined, g1 + g2, atol=1e-12)


def test_gather_and_slice_gradients():
    rng = np.random.default_rng(29)
    table = ad.Tensor(rng.normal(0, 1, (6, 4)), requires_grad=True)
    ids = [0, 2, 2, 5]
    w = rng.normal(0, 1, (1, 4))

    def fn():
        rows = ad.gather_rows(table, ids)
        return ad.tsum(ad.mul(ad.slice_rows(rows, 1, 2), w))

    assert grad_check(fn, [table]) < 1e-6
