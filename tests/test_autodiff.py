import numpy as np
import pytest
from conftest import (bce_grad_piecewise, factored_lora, grad_check, softmax_attention,
                      softmax_rows, transpose, tsum)
from hypothesis import given, settings
from hypothesis import strategies as st

from petfuse import autodiff as ad
from petfuse.errors import ConfigError, NumericError, ShapeError, numeric_guard


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
    err = grad_check(lambda: tsum(ad.mul(ad.matmul(a, b), w)), [a, b])
    assert err < 1e-6


def _lora_operands(rng, n, n_in, n_out, rank):
    """x, w, a and b of a LoRA projection, each a leaf that requires a gradient."""
    shapes = ((n, n_in), (n_in, n_out), (n_in, rank), (rank, n_out))
    return [ad.Tensor(rng.normal(0, 1, s), requires_grad=True) for s in shapes]


def _relative_error(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 9), n_in=st.integers(1, 12), n_out=st.integers(1, 12),
       rank=st.integers(1, 8), alpha=st.floats(0.25, 64.0), seed=st.integers(0, 2**32 - 1))
def test_lora_matmul_is_the_factored_projection(n, n_in, n_out, rank, alpha, seed):
    """The merged-weight op's output and its four gradients are the factored
    form's within 1e-12 relative; with b = 0 its output is x @ w bit for bit."""
    rng = np.random.default_rng(seed)
    scale = alpha / rank
    c = rng.normal(0, 1, (n, n_out))
    merged = _lora_operands(rng, n, n_in, n_out, rank)
    factored = [ad.Tensor(t.data.copy(), requires_grad=True) for t in merged]
    y = ad.lora_matmul(*merged, scale)
    want = factored_lora(*factored, scale)
    assert _relative_error(y.data, want.data) < 1e-12
    tsum(ad.mul(y, c)).backward()
    tsum(ad.mul(want, c)).backward()
    for got, ref in zip(merged, factored):
        assert _relative_error(got.grad, ref.grad) < 1e-12
    x, w, a, _ = (t.data for t in merged)
    at_init = ad.lora_matmul(x, w, a, np.zeros((rank, n_out)), scale).data
    assert at_init.tobytes() == ad.matmul(x, w).data.tobytes()


def test_lora_matmul_gradient_vs_finite_differences():
    """Rank 2 and alpha 3: a scale of 1.5, which no power-of-two rounding
    hides if it lands on the wrong operand."""
    rng = np.random.default_rng(17)
    x, w, a, b = _lora_operands(rng, 4, 5, 3, 2)
    c = rng.normal(0, 1, (4, 3))
    err = grad_check(lambda: tsum(ad.mul(ad.lora_matmul(x, w, a, b, 3.0 / 2), c)),
                     [x, w, a, b])
    assert err < 1e-6


@pytest.mark.parametrize("trains", [(True, False, True, True), (False, False, True, True),
                                    (True, False, False, False), (False, True, False, False)],
                         ids=["x_a_b", "a_b", "x", "w"])
def test_lora_matmul_keeps_only_what_its_backward_reads(trains):
    """The merged weight is kept only for x's gradient, x only for w's, a's
    or b's, and each factor only for the other's; each gradient formed is
    the same bits as when every operand trains."""
    rng = np.random.default_rng(19)
    data = [t.data for t in _lora_operands(rng, 4, 5, 3, 2)]
    c = rng.normal(0, 1, (4, 3))

    def run(flags):
        ts = [ad.Tensor(d, requires_grad=f) for d, f in zip(data, flags)]
        y = ad.lora_matmul(*ts, 1.5)
        held = [cell.cell_contents for cell in y._record.backward.__closure__
                if isinstance(cell.cell_contents, np.ndarray)]
        tsum(ad.mul(y, c)).backward()
        return held, [t.grad for t in ts]

    held, grads = run(trains)
    _, every = run((True,) * 4)
    x, w, a, b = data
    kept = [d for d, k in ((x, any(trains[1:])), (a, trains[3]), (b, trains[2])) if k]
    operands = [h for h in held if any(h is d for d in data)]
    assert sorted(map(id, operands)) == sorted(map(id, kept))
    merged = [h for h in held if all(h is not d for d in data)]
    assert [m.shape for m in merged] == [w.shape] * trains[0]
    for g, g_all, f in zip(grads, every, trains):
        assert (g is not None) == f
        if f:
            assert g.tobytes() == g_all.tobytes()


def test_lora_matmul_shape_mismatch():
    x, w, a, b = (np.ones(s) for s in ((2, 3), (3, 4), (3, 2), (2, 4)))
    with pytest.raises(ShapeError):
        ad.lora_matmul(x, w, a, np.ones((2, 5)), 1.0)
    with pytest.raises(ShapeError):
        ad.lora_matmul(np.ones((2, 4)), w, a, b, 1.0)
    with pytest.raises(ShapeError):
        ad.lora_matmul(x, w, np.ones(3), b, 1.0)


def test_attention_single_key_returns_value():
    rng = np.random.default_rng(0)
    q = ad.Tensor(rng.normal(0, 1, (1, 4)))
    k = ad.Tensor(rng.normal(0, 1, (1, 4)))
    v = ad.Tensor(rng.normal(0, 1, (1, 4)))
    out = softmax_attention(q, k, v, 0.5)
    assert np.allclose(out.data, v.data, atol=1e-12)


def test_attention_equal_scores_uniform_average():
    k = ad.Tensor(np.zeros((3, 4)))
    q = ad.Tensor(np.random.default_rng(1).normal(0, 1, (2, 4)))
    v = ad.Tensor(np.arange(12.0).reshape(3, 4))
    out = softmax_attention(q, k, v, 0.5)
    assert np.allclose(out.data, v.data.mean(axis=0), atol=1e-12)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(3)
    q = ad.Tensor(rng.normal(0, 1, (3, 4)))
    k = ad.Tensor(rng.normal(0, 1, (5, 4)))
    weights = softmax_rows(ad.mul(ad.matmul(q, transpose(k)), 0.5))
    assert np.allclose(weights.data.sum(axis=1), 1.0, atol=1e-12)


def test_attention_nonfinite_input():
    bad = ad.Tensor([[np.inf, 0.0]])
    ok = ad.Tensor([[1.0, 2.0]])
    with pytest.raises(NumericError):
        softmax_attention(bad, ok, ok, 1.0)


def test_attention_gradient():
    rng = np.random.default_rng(11)
    q = ad.Tensor(rng.normal(0, 1, (2, 4)), requires_grad=True)
    k = ad.Tensor(rng.normal(0, 1, (2, 4)), requires_grad=True)
    v = ad.Tensor(rng.normal(0, 1, (2, 4)), requires_grad=True)
    w = rng.normal(0, 1, (2, 4))
    err = grad_check(lambda: tsum(ad.mul(softmax_attention(q, k, v, 0.5), w)),
                     [q, k, v])
    assert err < 1e-6


# three sequences padded to 4 keys: full, two real keys, CLS only
MASK = np.array([[True, True, True, True],
                 [True, True, False, False],
                 [True, False, False, False]])


def _masked_inputs(tq, seed=12):
    rng = np.random.default_rng(seed)
    b, t = MASK.shape
    return [ad.Tensor(rng.normal(0, 1, (b * n, 3)), requires_grad=True)
            for n in (tq, t, t)]


@pytest.mark.parametrize("tq", [4, 1], ids=["full_block", "one_query"])
def test_masked_attention_gradient(tq):
    q, k, v = _masked_inputs(tq)
    w = np.random.default_rng(13).normal(0, 1, q.data.shape)
    err = grad_check(lambda: tsum(ad.mul(ad.masked_attention(q, k, v, MASK, 0.5), w)),
                     [q, k, v])
    assert err < 1e-6


@pytest.mark.parametrize("tq", [4, 1], ids=["full_block", "one_query"])
def test_masked_attention_is_softmax_attention_over_the_real_keys(tq):
    q, k, v = _masked_inputs(tq)
    out = ad.masked_attention(q, k, v, MASK, 0.5).data
    t = MASK.shape[1]
    for i, row in enumerate(MASK):
        n = int(row.sum())
        ref = softmax_attention(q.data[i * tq:(i + 1) * tq], k.data[i * t:i * t + n],
                                v.data[i * t:i * t + n], 0.5).data
        assert np.max(np.abs(out[i * tq:(i + 1) * tq] - ref)) <= 1e-12


@pytest.mark.parametrize("tq", [4, 1], ids=["full_block", "one_query"])
def test_padded_keys_get_exactly_zero_weight_and_gradient(tq):
    """Changing a padded key or value leaves the output's bits alone, and
    backward gives padded k and v rows exactly zero, in a CLS-only sequence
    too."""
    q, k, v = _masked_inputs(tq)
    out = ad.masked_attention(q, k, v, MASK, 0.5)
    padded = ~MASK.ravel()
    k2, v2 = k.data.copy(), v.data.copy()
    k2[padded] = 1e3
    v2[padded] = -7.0
    assert ad.masked_attention(q.data, k2, v2, MASK, 0.5).data.tobytes() == out.data.tobytes()
    tsum(ad.mul(out, np.random.default_rng(2).normal(0, 1, out.data.shape))).backward()
    for t in (k, v):
        assert not t.grad[padded].any()
        assert t.grad[~padded].any()


def test_masked_attention_checks_its_inputs():
    q, k, v = _masked_inputs(1)
    bad = k.data.copy()
    bad[-1, 0] = np.nan  # a padded row is checked too
    with pytest.raises(NumericError):
        ad.masked_attention(q, bad, v, MASK, 1.0)
    with pytest.raises(ShapeError):  # a sequence without a real key
        ad.masked_attention(q, k, v, np.zeros_like(MASK), 1.0)
    with pytest.raises(ShapeError):  # k rows do not fill B x T
        ad.masked_attention(q, k.data[:-1], v, MASK, 1.0)
    with pytest.raises(ShapeError):  # q rows are not a multiple of B
        ad.masked_attention(q.data[:-1], k, v, MASK, 1.0)


def test_a_node_without_gradient_records_no_tape():
    w = ad.Tensor(np.ones((2, 2)))
    x = ad.Tensor(np.ones((3, 2)))
    frozen = ad.relu(ad.matmul(x, w))
    assert not frozen.requires_grad
    assert frozen._record is None
    live = ad.matmul(frozen, ad.Tensor(np.ones((2, 2)), requires_grad=True))
    # the record lists only the input that requires a gradient
    assert live.requires_grad and len(live._record.parents) == 1


def test_backward_keeps_only_the_leaves_gradients():
    a = ad.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    b = ad.Tensor(np.array([[0.5], [3.0]]), requires_grad=True)
    h = ad.relu(ad.matmul(a, b))
    y = tsum(ad.mul(h, 2.0))
    y.backward()
    assert h.grad is None and y.grad is None
    assert a.grad is not None and b.grad is not None


def test_a_tape_is_single_use():
    """backward frees the tape it runs on: a second backward from the same
    output, or from a new output over one of its nodes, raises and leaves
    the leaves' gradients as they were."""
    a = ad.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    b = ad.Tensor(np.array([[0.5], [3.0]]), requires_grad=True)
    h = ad.relu(ad.matmul(a, b))
    y = tsum(ad.mul(h, 2.0))
    y.backward()
    assert h._record.parents == () and y._record.parents == ()
    ga, gb = a.grad.copy(), b.grad.copy()
    for out in (y, tsum(h)):
        with pytest.raises(RuntimeError, match="earlier backward"):
            out.backward()
    assert a.grad.tobytes() == ga.tobytes() and b.grad.tobytes() == gb.tobytes()
    tsum(ad.mul(ad.relu(ad.matmul(a, b)), 2.0)).backward()  # a fresh pass runs
    assert a.grad.tobytes() == (2 * ga).tobytes()


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
    assert grad_check(lambda: tsum(ad.mul(ad.layer_norm(x), w)), [x]) < 1e-6


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


def test_bce_backward_is_the_piecewise_sigmoid_bit_for_bit():
    """The backward's sigmoid, formed from the forward's exp(-|z|), gives the
    same bits as the piecewise form at signed zeros, at logits whose
    exponential is subnormal or zero, and on random logits, with no
    floating-point error under numeric_guard."""
    edges = np.array([0.0, -0.0, 1e-300, -1e-300, 37.0, -37.0, 745.0, -745.0,
                      1e300, -1e300])
    rng = np.random.default_rng(29)
    cases = [(np.tile(edges, (3, 1)), np.array([[0.0], [1.0], [0.5]]) * np.ones(10))]
    for scale in (1.0, 10.0, 1000.0):
        z = rng.normal(0, scale, (310, 14))
        z.flat[rng.choice(z.size, 20, replace=False)] = [0.0, -0.0] * 10
        cases.append((z, (rng.random(z.shape) < 0.5).astype(float)))
    for z, y in cases:
        logits = ad.Tensor(z.copy(), requires_grad=True)
        with numeric_guard("bce"):
            ad.bce_with_logits(logits, y).backward()
            want = bce_grad_piecewise(z, y)
        assert logits.grad.tobytes() == want.tobytes()


def test_bce_grad_is_the_piecewise_sigmoid_at_large_logits():
    """Beyond |z| = 40, where exp(-|z|) is below half an ulp of 1, the
    shared gradient still gives the piecewise form's bits on either side."""
    rng = np.random.default_rng(31)
    z = rng.uniform(40.0, 800.0, (50, 6)) * rng.choice([-1.0, 1.0], (50, 6))
    y = (rng.random(z.shape) < 0.5).astype(float)
    got = ad.bce_grad(z, np.exp(-np.abs(z)), y, 1.0)
    assert got.tobytes() == bce_grad_piecewise(z, y).tobytes()


def test_bce_grad_is_the_old_expression_under_accumulation():
    """At an upstream gradient of 1/3, as three accumulated micro-batches
    pass back, bce_grad gives the bits of g * (p - y) / n with the sigmoid
    formed per branch."""
    rng = np.random.default_rng(37)
    z = rng.normal(0, 5, (16, 14))
    z.flat[:4] = [0.0, -0.0, 745.0, -745.0]
    y = (rng.random(z.shape) < 0.5).astype(float)
    e = np.exp(-np.abs(z))
    g = np.asarray(1.0 / 3)
    p = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    assert ad.bce_grad(z, e, y, g).tobytes() == (g * (p - y) / z.size).tobytes()


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
        return tsum(ad.mul(ad.gather_rows(rows, [1]), w))  # the slice rows[1:2]

    assert grad_check(fn, [table]) < 1e-6


@pytest.mark.parametrize("op,a_shape,b_shape", [
    (ad.matmul, (3, 4), (4, 2)),
    (ad.mul, (3, 4), (3, 4)),
    (ad.mul, (3, 4), (4,)),
    (ad.mul, (3, 1), (1, 4)),
    (ad.mul, (3, 4), ()),
    (ad.add, (3, 4), (3, 4)),
    (ad.add, (3, 4), (4,)),
    (ad.add, (1, 4), (3, 1)),
    (ad.add, (), (2, 3)),
])
def test_trainable_operand_gradient_does_not_depend_on_the_other(op, a_shape, b_shape):
    """Backward forms an operand's gradient only when it requires one; the
    other operand's gradient is the same bits either way."""
    rng = np.random.default_rng(31)
    a_data, b_data = rng.normal(0, 1, a_shape), rng.normal(0, 1, b_shape)
    w = rng.normal(0, 1, np.broadcast_shapes(a_shape, b_shape)
                   if op is not ad.matmul else (a_shape[0], b_shape[1]))

    def grads(a_trains, b_trains):
        a = ad.Tensor(a_data, requires_grad=a_trains)
        b = ad.Tensor(b_data, requires_grad=b_trains)
        tsum(ad.mul(op(a, b), w)).backward()
        return a.grad, b.grad

    both = grads(True, True)
    a_only, b_only = grads(True, False), grads(False, True)
    assert a_only[1] is None and b_only[0] is None
    assert a_only[0].shape == a_shape and b_only[1].shape == b_shape
    assert a_only[0].tobytes() == both[0].tobytes()
    assert b_only[1].tobytes() == both[1].tobytes()
