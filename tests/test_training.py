import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from replygen import Dims, Rng, model, training
from replygen.corpus import BOS_ID, EOS_ID, Batch, build_vocab, _pack
from replygen.model import (
    ContextMemory,
    _context,
    _new_params,
    _output_layer,
    _post_memory,
    _start_state,
    context_memory,
    encode,
    load_checkpoint,
    save_checkpoint,
    sequence_log_likelihood,
)
from replygen.numerics import clip_global_norm
from replygen.training import (
    TrainConfig,
    backward,
    batch_loss,
    corpus_perplexity,
    grad_check,
    init_hybrid_from_pretrained,
    init_params,
    sgd_step,
    train,
)

from conftest import (FIRST_CONTENT, HYB_TENSOR_NAMES, TINY, sigmoid, step_log_probs,
                      toy_corpus)


# --- the per-gate reference cell ---------------------------------------------


def _ref_gru_step(cell, x, h_prev):
    """Reference for model._gru_step: one step gate by gate, each gate's
    three terms from its own products, as the cell ran before its gates
    were stacked. Returns (h, cache), cache the step's (x, h_prev, z, r,
    hbar)."""
    z = sigmoid(x @ cell.W_z.T + h_prev @ cell.U_z.T + cell.b_z)
    r = sigmoid(x @ cell.W_r.T + h_prev @ cell.U_r.T + cell.b_r)
    hbar = np.tanh(x @ cell.W_h.T + (r * h_prev) @ cell.U_h.T + cell.b_h)
    h = (1.0 - z) * h_prev + z * hbar
    return h, (x, h_prev, z, r, hbar)


def _ref_gru_backward(dcell, cell, cache, dh):
    """Reference for training._gru_adjoint and _gru_weight_grads: the
    adjoint of one _ref_gru_step, every weight gradient added into its
    gate's rows of dcell at every step. Returns (dx, dh_prev)."""
    x, h_prev, z, r, hbar = cache
    dz = dh * (hbar - h_prev)
    dhbar = dh * z
    dh_prev = dh * (1.0 - z)

    dpre_h = dhbar * (1.0 - hbar * hbar)
    dcell.W_h[...] += dpre_h.T @ x
    dcell.U_h[...] += dpre_h.T @ (r * h_prev)
    dcell.b_h[...] += dpre_h.sum(axis=0)
    drh = dpre_h @ cell.U_h
    dr = drh * h_prev
    dh_prev += drh * r

    dpre_z = dz * z * (1.0 - z)
    dcell.W_z[...] += dpre_z.T @ x
    dcell.U_z[...] += dpre_z.T @ h_prev
    dcell.b_z[...] += dpre_z.sum(axis=0)
    dh_prev += dpre_z @ cell.U_z

    dpre_r = dr * r * (1.0 - r)
    dcell.W_r[...] += dpre_r.T @ x
    dcell.U_r[...] += dpre_r.T @ h_prev
    dcell.b_r[...] += dpre_r.sum(axis=0)
    dh_prev += dpre_r @ cell.U_r

    dx = dpre_z @ cell.W_z + dpre_r @ cell.W_r + dpre_h @ cell.W_h
    return dx, dh_prev


# --- loss ----------------------------------------------------------------


_content_ids = st.integers(FIRST_CONTENT, TINY.v_post - 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.lists(_content_ids, min_size=1, max_size=6),
                          st.lists(_content_ids, min_size=1, max_size=5)),
                min_size=1, max_size=6))
@example([([4, 5, 6, 7], [5, 6, 7]), ([8, 9, 10], [8, 9]), ([11, 4], [10])])  # small_batch
def test_batch_loss_matches_per_row_scoring(rows):
    """The padded batched loss must equal the mean of unpadded row scores,
    on random ragged batches."""
    batch = _pack([post for post, _ in rows],
                  [[BOS_ID] + resp + [EOS_ID] for _, resp in rows])
    for scheme in ("glo", "loc", "hyb"):
        params = init_params(scheme, TINY, Rng(3))
        loss, n_tokens = batch_loss(params, batch)

        total = 0.0
        count = 0
        for post, resp in rows:
            total += sequence_log_likelihood(params, post, resp)
            count += len(resp) + 1  # content plus the end marker
        assert n_tokens == count
        assert abs(loss - (-total / count)) < 1e-12


def _all_rows_output_loss(params, batch, s_t, y_emb, c):
    """Reference for training._output_loss: the output layer over all
    steps * B rows, padding included, as it ran before the packing, with
    the target log-probabilities masked to 0 at padding. The loss is read
    from _output_layer's shifted logits less their normalizers; the
    exponentials of the shifted logits and their row sums are kept for the
    gradient."""
    steps, b = s_t.shape[:2]
    rows = tuple(x.reshape(steps * b, -1) for x in (s_t, y_emb, c))
    rout, shifted, log_s = _output_layer(params, *rows)
    logp = (shifted - log_s[:, None]).reshape(steps, b, -1)
    target_logp = logp[np.arange(steps)[:, None], np.arange(b), batch.resp_ids[:, 1:].T]
    target_logp *= batch.resp_mask[:, 1:].T
    logits = rout @ params.W_o.T + params.b_o
    e = np.exp(logits - logits.max(axis=1, keepdims=True)).reshape(steps, b, -1)
    return target_logp, {"batch": batch, "rows": rows, "rout": rout, "e": e,
                          "s": e.sum(axis=2)}


def _all_rows_output_backward(grads, params, cache, lam, steps, b):
    """Reference for training._output_backward over all steps * B rows:
    dlogits = w * (e / s - onehot(target)), with w the loss weight lam
    times the target mask, formed as e * (w / s) - w."""
    batch, rout = cache["batch"], cache["rout"]
    s_t, y_emb, c = cache["rows"]
    w = lam * batch.resp_mask[:, 1:].T
    dlogits = cache["e"] * (w / cache["s"])[:, :, None]
    dlogits[np.arange(steps)[:, None], np.arange(b), batch.resp_ids[:, 1:].T] -= w
    dlogits = dlogits.reshape(steps * b, -1)
    grads.W_o += dlogits.T @ rout
    grads.b_o += dlogits.sum(axis=0)
    da = (dlogits @ params.W_o) * (1.0 - rout ** 2)
    grads.W_s += da.T @ s_t
    grads.W_y += da.T @ y_emb
    grads.W_c += da.T @ c
    grads.b_r += da.sum(axis=0)
    return [(da @ w).reshape(steps, b, -1) for w in (params.W_s, params.W_y, params.W_c)]


def _packed_all_rows_output(batch):
    """_all_rows_output_loss and _all_rows_output_backward behind the packed
    interface of training._output_loss and _output_backward. The packed
    rows are scattered into the (steps, B) layout of the batch's rows in
    the packed order (stable, by descending target count), where step t's
    real rows are its first ones and every padding row is 0; the all-rows
    layer runs over that, and the real rows are gathered back."""
    n_targets = np.count_nonzero(batch.resp_mask[:, 1:], axis=1)
    order = np.argsort(-n_targets, kind="stable")
    live = n_targets[order] > np.arange(batch.resp_ids.shape[1] - 1)[:, None]
    ordered = Batch(*(x[order] for x in (batch.post_ids, batch.post_mask,
                                         batch.resp_ids, batch.resp_mask)))

    def padded(x):
        out = np.zeros(live.shape + x.shape[1:])
        out[live] = x
        return out

    def output_loss(params, s_t, y_emb, c, targets):
        target_logp, cache = _all_rows_output_loss(params, ordered,
                                                   *(padded(x) for x in (s_t, y_emb, c)))
        return target_logp[live], cache

    def output_backward(grads, params, cache, lam):
        return [d[live] for d in _all_rows_output_backward(grads, params, cache, lam,
                                                           *live.shape)]

    return output_loss, output_backward


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.lists(_content_ids, min_size=1, max_size=6),
                          st.lists(_content_ids, min_size=1, max_size=5)),
                min_size=1, max_size=6),
       st.integers(0, 2 ** 16))
@example([([4, 5, 6, 7], [5, 6, 7]), ([8, 9, 10], [8, 9]), ([11, 4], [10])], 0)
def test_real_row_output_layer_matches_all_rows(rows, seed):
    """The output layer and its gradients over the real target rows only
    give bitwise the loss and every gradient of the all-rows layer, on
    random ragged batches."""
    batch = _pack([post for post, _ in rows],
                  [[BOS_ID] + resp + [EOS_ID] for _, resp in rows])
    output_loss, output_backward = _packed_all_rows_output(batch)
    for scheme in ("glo", "loc", "hyb"):
        params = init_params(scheme, TINY, Rng(seed), low=-0.5, high=0.5)
        loss, _ = batch_loss(params, batch)
        loss_b, grads = backward(params, batch)
        with mock.patch.object(training, "_output_loss", output_loss), \
                mock.patch.object(training, "_output_backward", output_backward):
            ref_loss, _ = batch_loss(params, batch)
            ref_loss_b, ref_grads = backward(params, batch)
        assert loss == loss_b == ref_loss == ref_loss_b, scheme
        for name, g in ref_grads.items():
            np.testing.assert_array_equal(grads[name], g, err_msg=f"{scheme} {name}")


@pytest.mark.parametrize("scheme", ["glo", "loc", "hyb"])
def test_batch_loss_peak_memory_is_one_real_row_buffer(scheme):
    """One 14-token response and fifteen 1-token ones: 45 real targets in
    15 steps * 16 rows. The output layer forms the real rows' log-probability
    buffer only, never the 240-row padded one."""
    dims = Dims(d_h=16, d_emb=8, d_a=16, d_L=8, d_r=16, v_post=40, v_resp=4000)
    params = init_params(scheme, dims, Rng(11), low=-0.5, high=0.5)
    resps = [list(range(4, 18))] + [[5 + i] for i in range(15)]
    batch = _pack([[4, 9, 17, 23]] * 16, [[BOS_ID] + r + [EOS_ID] for r in resps])
    n_real = int(batch.resp_mask[:, 1:].sum())
    assert n_real == 45 and batch.resp_ids.shape == (16, 16)
    batch_loss(params, batch)  # warm up lazy set-up
    tracemalloc.start()
    try:
        batch_loss(params, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n_real * dims.v_resp * 8


def test_batch_loss_ignores_padded_steps(make_params, small_batch):
    params = make_params("loc", seed=4)
    loss, n = batch_loss(params, small_batch)
    # re-pack with two extra all-pad response columns
    posts = [list(ids[mask == 1.0])
             for ids, mask in zip(small_batch.post_ids, small_batch.post_mask)]
    resps = [list(ids[mask == 1.0])
             for ids, mask in zip(small_batch.resp_ids, small_batch.resp_mask)]
    resps[0] = resps[0]  # row 0 already the longest; pad others further
    widened = _pack(posts, [resps[0] + [0, 0]] + resps[1:])
    widened.resp_mask[0, -2:] = 0.0
    widened.resp_ids[0, -2:] = 0
    loss2, n2 = batch_loss(params, widened)
    assert n == n2
    assert loss == loss2


def test_batch_loss_rejects_empty_response(make_params):
    """A row framed as `<s> </s>` has no response token to score, as the
    decoders never emit it and sequence_log_likelihood refuses it."""
    batch = _pack([[4, 5], [6]], [[BOS_ID, 7, EOS_ID], [BOS_ID, EOS_ID]])
    params = make_params("loc")
    for fn in (batch_loss, backward):
        with pytest.raises(ValueError, match="at least one token"):
            fn(params, batch)


@pytest.mark.parametrize("mask", [[1, 1, 0.5, 1], [1, 1, 0, 1]], ids=["half", "hole"])
def test_batch_loss_refuses_a_resp_mask_that_is_not_0_1_and_left_aligned(mask, make_params):
    """Every real target weighs 1 / token_count in backward, so the loss
    neither counts a fractional entry nor drops a target behind a hole."""
    batch = _pack([[4, 5], [6]], [[BOS_ID, 7, 8, EOS_ID], [BOS_ID, 9, EOS_ID]])
    batch.resp_mask[0] = mask
    params = make_params("loc")
    for fn in (batch_loss, backward):
        with pytest.raises(ValueError, match="resp_mask must be 1 on each response's tokens"):
            fn(params, batch)


@pytest.mark.parametrize("bad", [-1, TINY.v_resp], ids=["negative", "past-the-end"])
def test_batch_loss_refuses_an_id_outside_the_vocabulary(bad, make_params):
    """An embedding or output row index neither wraps around nor runs past
    its table, on either side of a batch."""
    params = make_params("hyb")
    for side, batch in (
            ("response", _pack([[4, 5], [6]], [[BOS_ID, 7, 8, EOS_ID], [BOS_ID, bad, EOS_ID]])),
            ("post", _pack([[4, 5], [bad]], [[BOS_ID, 7, 8, EOS_ID], [BOS_ID, 9, EOS_ID]]))):
        for fn in (batch_loss, backward):
            with pytest.raises(ValueError, match=f"{side} id {bad} is outside the vocabulary"):
                fn(params, batch)


def test_batch_loss_refuses_a_non_integral_id(make_params):
    """A non-integral id is refused by its value, not truncated, on either
    side of a batch."""
    params = make_params("hyb")
    good = _pack([[4, 5], [6]], [[BOS_ID, 7, 8, EOS_ID], [BOS_ID, 9, EOS_ID]])
    post_ids, resp_ids = good.post_ids.astype(float), good.resp_ids.astype(float)
    post_ids[1, 0], resp_ids[1, 1] = 6.5, 9.5
    for side, batch, value in (
            ("post", Batch(post_ids, good.post_mask, good.resp_ids, good.resp_mask), 6.5),
            ("response", Batch(good.post_ids, good.post_mask, resp_ids, good.resp_mask), 9.5)):
        for fn in (batch_loss, backward):
            with pytest.raises(ValueError, match=f"{side} id {value} is not an integer"):
                fn(params, batch)


def test_batch_loss_refuses_more_posts_than_responses(make_params):
    """The packed order of the responses picks the posts, so a post past
    the last response would be dropped unseen."""
    full = _pack([[4, 5], [6], [7]], [[BOS_ID, 7, EOS_ID], [BOS_ID, 8, EOS_ID],
                                      [BOS_ID, 9, EOS_ID]])
    batch = Batch(full.post_ids, full.post_mask, full.resp_ids[:2], full.resp_mask[:2])
    for fn in (batch_loss, backward):
        with pytest.raises(ValueError, match="one post per response, got 3 posts and 2"):
            fn(make_params("loc"), batch)


def test_backward_reports_same_loss(make_params, small_batch):
    """The cached forward of backward and the cache-free one of batch_loss
    give the same loss bitwise, for every scheme."""
    for scheme in ("glo", "loc", "hyb"):
        params = make_params(scheme, seed=5)
        loss_f, _ = batch_loss(params, small_batch)
        loss_b, _ = backward(params, small_batch)
        assert loss_f == loss_b, scheme


def test_batch_loss_matches_stepwise_decoder(make_params, small_batch):
    """The output layer, run once over every step of a batch, gives the
    loss of stepping _decoder_step over all rows, for every scheme, up to
    the roundoff of products over fewer rows: the packed steps run the live
    rows only."""
    b = small_batch
    rows = np.arange(len(b))
    for scheme in ("glo", "loc", "hyb"):
        params = make_params(scheme, seed=6, low=-0.5, high=0.5)
        memory = _post_memory(params, encode(params, b.post_ids, b.post_mask))
        s = _start_state(params, memory)
        loss_sum = 0.0
        for t in range(b.resp_ids.shape[1] - 1):
            s, logp, _ = step_log_probs(params, memory, s, b.resp_ids[:, t])
            loss_sum -= float((b.resp_mask[:, t + 1] * logp[rows, b.resp_ids[:, t + 1]]).sum())
        loss, n_tok = batch_loss(params, b)
        assert abs(loss - loss_sum / n_tok) < 1e-12, scheme


def test_backward_grad_keys_match_tensors(make_params, small_batch):
    for scheme in ("glo", "loc", "hyb"):
        params = make_params(scheme)
        _, grads = backward(params, small_batch)
        tensors = params.named_tensors()
        assert set(grads) == set(tensors)
        for name, g in grads.items():
            assert g.shape == tensors[name].shape


def test_backward_unused_embedding_rows_get_zero_grad(make_params, small_batch):
    params = make_params("glo", seed=6)
    _, grads = backward(params, small_batch)
    used_post = set(small_batch.post_ids[small_batch.post_mask > 0].tolist())
    for row in range(TINY.v_post):
        if row not in used_post:
            assert (grads["E_x"][row] == 0.0).all()
    # row 0 of E_y is the pad token: never a decoder input on these batches
    assert (grads["E_y"][0] == 0.0).all()


def _table_sum(ids, dx):
    """Reference for training._row_sum: np.add.at into a zero table of rows
    0 .. max(ids), given as the pair of all its rows."""
    table = np.zeros((ids.max() + 1, dx.shape[1]))
    np.add.at(table, ids, dx)
    return np.arange(len(table)), table


@pytest.mark.parametrize("scheme", ["glo", "loc", "hyb"])
def test_backward_embedding_grads_are_add_at_into_the_table(scheme, make_params):
    """The public backward's E_x and E_y gradients, formed on the rows a
    batch reads and written into a zero table, have the bits of np.add.at
    into the whole table."""
    params = make_params(scheme, seed=16, low=-0.5, high=0.5)
    batch = _edge_batch(STAIR_ROWS)
    _, grads = backward(params, batch)
    with mock.patch.object(training, "_row_sum", _table_sum):
        _, ref = backward(params, batch)
    for name in ("E_x", "E_y"):
        assert grads[name].shape == params.named_tensors()[name].shape
        assert grads[name].tobytes() == ref[name].tobytes(), name
    rows, _ = training._backward(params, batch)[1]["E_y"]
    assert rows.tolist() == sorted(set(batch.resp_ids[:, :-1][batch.resp_mask[:, 1:] > 0].tolist()))


# --- finite differences ---------------------------------------------------


def test_grad_check_passes_on_wide_init(make_params, small_batch):
    params = make_params("glo", seed=11, low=-0.8, high=0.8)
    ok, report = grad_check(params, small_batch)
    worst = max(report.values())
    assert ok, f"worst relative error {worst:.3e}"
    assert len(report) == 28


@pytest.mark.parametrize("knob", ["eps", "tol"])
@pytest.mark.parametrize("value", [0.0, -1e-5, math.nan, math.inf])
def test_grad_check_rejects_bad_eps_and_tol(knob, value, make_params, small_batch):
    params = make_params("glo", seed=11, low=-0.8, high=0.8)
    with pytest.raises(ValueError, match=f"{knob} must be a finite number > 0"):
        grad_check(params, small_batch, **{knob: value})


def test_grad_check_catches_a_planted_error(make_params, small_batch):
    """Sanity that the checker can actually fail: at an impossible tolerance
    the float64 roundoff of correct gradients is reported as failure."""
    params = make_params("glo", seed=13, low=-0.8, high=0.8)
    ok, report = grad_check(params, small_batch, tol=1e-12)
    assert not ok  # float64 roundoff alone exceeds an impossible tolerance


@pytest.mark.parametrize("scheme, name", [("glo", "enc.U_z"), ("hyb", "attn.U_a")])
def test_grad_check_catches_a_scaled_gradient(scheme, name, make_params, small_batch,
                                              monkeypatch):
    """One tensor's gradient off by a factor 1 + 1e-3 fails at the default
    tolerance, and that tensor is the only one reported."""
    real_backward = training.backward

    def scaled_backward(params, batch):
        loss, grads = real_backward(params, batch)
        grads[name] = grads[name] * (1.0 + 1e-3)
        return loss, grads

    monkeypatch.setattr(training, "backward", scaled_backward)
    params = make_params(scheme, seed=14, low=-0.8, high=0.8)
    ok, report = grad_check(params, small_batch)
    assert not ok
    assert [n for n, err in report.items() if err > 1e-4] == [name]


# --- the padding edge ----------------------------------------------------


# A 1-token post beside a full-length one, and a 1-token response beside a
# long one: dfinal enters the short post's encoder at step 0, and every
# later step of that row, on either side, is padding.
EDGE_ROWS = [([5], [7]), ([4, 6, 8, 10, 7, 9], [4, 11, 6, 9, 5, 8])]

# Four rows out of length order on both sides: the encoder's live rows go
# 4, 3, 2, 1 over its 7 steps (posts of 3, 1, 7, 5 tokens), and the
# decoder's 4, 3, 2, 1 over its 7 (3, 7, 2, 5 targets).
STAIR_ROWS = [([4, 5, 6], [7, 8]), ([5], [9, 4, 6, 8, 10, 5]),
              ([6, 7, 8, 9, 10, 11, 4], [5]), ([8, 9, 10, 11, 4], [6, 7, 8, 9])]


def _edge_batch(rows):
    return _pack([post for post, _ in rows], [[BOS_ID] + resp + [EOS_ID] for _, resp in rows])


@pytest.mark.parametrize("scheme", ["glo", "loc", "hyb"])
def test_grad_check_passes_at_the_padding_edge(scheme, make_params):
    params = make_params(scheme, seed=12, low=-0.8, high=0.8)
    ok, report = grad_check(params, _edge_batch(EDGE_ROWS))
    assert ok, f"worst relative error {max(report.values()):.3e}"


@pytest.mark.parametrize("scheme", ["glo", "loc", "hyb"])
def test_grad_check_passes_as_the_live_rows_step_down(scheme, make_params):
    params = make_params(scheme, seed=15, low=-0.8, high=0.8)
    ok, report = grad_check(params, _edge_batch(STAIR_ROWS))
    assert ok, f"worst relative error {max(report.values()):.3e}"


def _lengths_mask(ids, lengths):
    return (np.arange(ids.shape[1]) < lengths[:, None]).astype(np.float64)


def _carried_run_encoder(cell, E_x, ids, lengths):
    """Reference for model._run_encoder: the masked pass that carried each
    row's state unchanged through its padded steps, as it ran before every
    row stepped every position."""
    mask = _lengths_mask(ids, lengths)
    h = np.zeros((len(ids), cell.U_z.shape[0]))
    states = np.zeros(ids.shape + h.shape[1:])
    caches = []
    for t in range(ids.shape[1]):
        h_hat, cache = _ref_gru_step(cell, E_x[ids[:, t]], h)
        caches.append(cache)
        m = mask[:, t][:, None]
        states[:, t, :] = m * h_hat
        h = m * h_hat + (1.0 - m) * h
    return states, h, (ids, lengths, caches)


def _carried_encoder_backward(dcell, cell, tape, dstates, dfinal):
    """Reference for training._encoder_backward: the adjoint of the carried
    pass, which passed the final state's gradient through padded steps.
    Returns every position's (ids, dx), last position first; dx is 0 at
    padding."""
    ids, lengths, caches = tape
    mask = _lengths_mask(ids, lengths)
    if dstates is None:
        dstates = np.zeros(ids.shape + dfinal.shape[1:])
    dcarry = dfinal.copy()
    tokens, dxs = [], []
    for t in reversed(range(ids.shape[1])):
        m = mask[:, t][:, None]
        dx, dh_prev = _ref_gru_backward(dcell, cell, caches[t], (dcarry + dstates[:, t, :]) * m)
        dcarry = dcarry * (1.0 - m) + dh_prev
        tokens.append(ids[:, t])
        dxs.append(dx)
    return np.concatenate(tokens), np.concatenate(dxs)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.lists(_content_ids, min_size=1, max_size=7),
                          st.lists(_content_ids, min_size=1, max_size=5)),
                min_size=1, max_size=6),
       st.integers(0, 2 ** 16))
@example(EDGE_ROWS, 0)
def test_encoder_matches_the_carried_state_reference(rows, seed):
    """Stepping each row through its own positions only, with final read at
    each row's length, gives the encoder states, final states and encoder
    gradients of the pass that carried the state through padding, up to
    the roundoff of products over fewer rows."""
    batch = _edge_batch(rows)
    for scheme in ("glo", "loc", "hyb"):
        params = init_params(scheme, TINY, Rng(seed), low=-0.5, high=0.5)
        enc = encode(params, batch.post_ids, batch.post_mask)
        loss, grads = backward(params, batch)
        with mock.patch.object(model, "_run_encoder", _carried_run_encoder), \
                mock.patch.object(training, "_encoder_backward", _carried_encoder_backward):
            ref = encode(params, batch.post_ids, batch.post_mask)
            ref_loss, ref_grads = backward(params, batch)
        assert abs(loss - ref_loss) < 1e-12, scheme
        for field in ("states", "final", "global_final"):
            if getattr(ref, field) is not None:
                np.testing.assert_allclose(getattr(enc, field), getattr(ref, field),
                                           rtol=0, atol=1e-12, err_msg=f"{scheme} {field}")
        for name, g in ref_grads.items():
            if name == "E_x" or name.startswith(("enc.", "enc_g.")):
                np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-12,
                                           err_msg=f"{scheme} {name}")


# --- the packed recurrences ------------------------------------------------


def _all_rows_run_encoder(cell, E_x, ids, lengths):
    """Reference for model._run_encoder: every row steps every position,
    padding included, as the encoders ran before the packing."""
    h = np.zeros((len(ids), cell.U_z.shape[0]))
    states, caches = [], []
    for t in range(ids.shape[1]):
        h, cache = _ref_gru_step(cell, E_x[ids[:, t]], h)
        states.append(h)
        caches.append(cache)
    states = np.stack(states, axis=1) * _lengths_mask(ids, lengths)[:, :, None]
    return states, states[np.arange(len(ids)), lengths - 1], (ids, lengths, caches)


def _all_rows_encoder_backward(dcell, dE_x, cell, tape, dstates, dfinal):
    """Reference for training._encoder_backward: the adjoint of
    _all_rows_run_encoder, whose gradient at a padded step is exactly 0."""
    ids, lengths, caches = tape
    if dstates is None:
        dstates = np.zeros(ids.shape + dfinal.shape[1:])
    dstates[np.arange(len(ids)), lengths - 1] += dfinal
    dh = np.zeros_like(dfinal)
    for t in reversed(range(ids.shape[1])):
        dx, dh = _ref_gru_backward(dcell, cell, caches[t], dh + dstates[:, t])
        np.add.at(dE_x, ids[:, t], dx)


def _padded_backward(params, batch):
    """Reference for batch_loss and backward: the loops as they ran before
    the packing and the stacked gates. Every encoder and decoder step runs
    all B rows, in the batch's order, through every position, with the
    per-gate reference cell, and the output layer runs over all steps * B
    rows with the loss weight 0 at padding. Returns (loss, grads)."""
    with mock.patch.object(model, "_run_encoder", _all_rows_run_encoder):
        enc_out, (enc_tape, encg_tape) = model._encode(params, batch.post_ids, batch.post_mask)
    memory = context_memory(params, enc_out)
    s0 = _start_state(params, memory)
    b, t_resp = batch.resp_ids.shape
    steps = t_resp - 1
    s_t = np.empty((steps, b, params.dims.d_h))
    c = np.empty((steps, b, memory.init.shape[1]))
    dec_steps = []
    s = s0
    for t in range(steps):
        ta = None if memory.keys is None else np.empty((b,) + memory.keys.shape[1:])
        c[t], alpha = _context(params, memory, s, ta)
        u = np.concatenate([params.E_y[batch.resp_ids[:, t]], c[t] @ params.L.T], axis=1)
        s, cache = _ref_gru_step(params.dec, u, s)
        s_t[t] = s
        dec_steps.append((cache, alpha, ta))
    target_logp, output = _all_rows_output_loss(params, batch, s_t,
                                                params.E_y[batch.resp_ids[:, :-1].T], c)
    loss_sum = 0.0
    for t in range(steps):
        loss_sum -= float(target_logp[t].sum())
    token_count = float(batch.resp_mask[:, 1:].sum())

    grads = _new_params(params.scheme, params.dims, np.zeros)
    d_emb = params.dims.d_emb
    ds_out, dy_emb, dc_out = _all_rows_output_backward(grads, params, output,
                                                       1.0 / token_count, steps, b)
    dlc = np.empty((steps, b, params.dims.d_L))
    dmemory = ContextMemory(np.zeros_like(memory.init))
    if memory.keys is not None:
        dmemory.values = np.zeros_like(memory.values)
        dmemory.keys = np.zeros_like(memory.keys)
    d_v = 0 if memory.values is None else memory.values.shape[2]  # attended columns
    ds_carry = np.zeros((b, params.dims.d_h))
    for t in reversed(range(steps)):
        cache, alpha, ta = dec_steps[t]
        du, ds_prev = _ref_gru_backward(grads.dec, params.dec, cache, ds_carry + ds_out[t])
        dy_emb[t] += du[:, :d_emb]
        dlc[t] = du[:, d_emb:]
        dc = dc_out[t] + dlc[t] @ params.L
        dmemory.init[:, d_v:] += dc[:, d_v:]
        if memory.keys is not None:
            ds_prev += training._attention_backward(grads, params, memory, dmemory, alpha, ta,
                                                    cache[1], dc[:, :d_v])
        ds_carry = ds_prev
    grads.L += dlc.reshape(steps * b, -1).T @ c.reshape(steps * b, -1)
    np.add.at(grads.E_y, batch.resp_ids[:, :-1].T.reshape(-1), dy_emb.reshape(steps * b, d_emb))
    da0 = ds_carry * (1.0 - s0 ** 2)
    grads.W_0 += da0.T @ memory.init
    dmemory.init += da0 @ params.W_0
    dstates, dfinal, dglobal_final = training._memory_backward(grads, params, memory, dmemory)
    _all_rows_encoder_backward(grads.enc, grads.E_x, params.enc, enc_tape, dstates, dfinal)
    if params.scheme == "hyb":
        _all_rows_encoder_backward(grads.enc_g, grads.E_x, params.enc_g, encg_tape, None,
                                   dglobal_final)
    return loss_sum / token_count, grads.named_tensors()


def _widened(batch, columns):
    """The batch with `columns` more all-pad columns on both sides."""
    def wider(x):
        return np.pad(x, ((0, 0), (0, columns)))
    return Batch(*(wider(x) for x in (batch.post_ids, batch.post_mask,
                                      batch.resp_ids, batch.resp_mask)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.lists(_content_ids, min_size=1, max_size=7),
                          st.lists(_content_ids, min_size=1, max_size=6)),
                min_size=1, max_size=20),
       st.integers(0, 2 ** 16), st.integers(0, 2))
@example(EDGE_ROWS, 0, 2)
@example(STAIR_ROWS, 0, 0)
def test_packed_recurrences_match_the_padded_reference(rows, seed, pad_columns):
    """batch_loss and backward, whose every encoder and decoder step runs
    the live rows only, give the loss and every gradient of the all-rows
    loops up to the roundoff of products over fewer rows, on random ragged
    batches of up to 20 rows, 1-token posts and responses included, and
    with trailing all-pad columns."""
    batch = _widened(_edge_batch(rows), pad_columns)
    for scheme in ("glo", "loc", "hyb"):
        params = init_params(scheme, TINY, Rng(seed), low=-0.5, high=0.5)
        loss, _ = batch_loss(params, batch)
        loss_b, grads = backward(params, batch)
        ref_loss, ref_grads = _padded_backward(params, batch)
        assert loss == loss_b, scheme
        assert abs(loss - ref_loss) < 1e-12, scheme
        for name, g in ref_grads.items():
            np.testing.assert_allclose(grads[name], g, rtol=0, atol=1e-12,
                                       err_msg=f"{scheme} {name}")


# --- SGD -----------------------------------------------------------------


def test_sgd_step_applies_update(make_params, small_batch):
    params = make_params("glo", seed=7)
    _, grads = backward(params, small_batch)
    before = {k: v.copy() for k, v in params.named_tensors().items()}
    factor = sgd_step(params, grads, lr=0.5)
    assert factor == 1.0
    for name, arr in params.named_tensors().items():
        np.testing.assert_array_equal(arr, before[name] - 0.5 * grads[name])


def test_sgd_step_zero_lr_is_identity(make_params, small_batch):
    params = make_params("loc", seed=8)
    _, grads = backward(params, small_batch)
    before = {k: v.copy() for k, v in params.named_tensors().items()}
    sgd_step(params, grads, lr=0.0)
    for name, arr in params.named_tensors().items():
        np.testing.assert_array_equal(arr, before[name])


def test_sgd_step_rejects_negative_lr(make_params, small_batch):
    params = make_params("glo")
    _, grads = backward(params, small_batch)
    with pytest.raises(ValueError):
        sgd_step(params, grads, lr=-0.1)


@pytest.mark.parametrize("lr", [math.nan, math.inf])
def test_sgd_step_rejects_non_finite_lr(lr, make_params, small_batch):
    params = make_params("glo")
    _, grads = backward(params, small_batch)
    with pytest.raises(ValueError, match="learning rate must be finite"):
        sgd_step(params, grads, lr=lr)


@pytest.mark.parametrize("clip_norm", [None, 1e-3], ids=["no-clip", "clip"])
def test_sgd_step_is_t_minus_lr_times_the_scaled_gradient(clip_norm, make_params, small_batch):
    """Every tensor becomes t - lr * g bit for bit without clipping, and
    t - lr * (g * factor) with it; the factor is clip_global_norm's, and
    grads are left as they were."""
    params = make_params("hyb", seed=7)
    _, grads = backward(params, small_batch)
    kept = {k: v.copy() for k, v in grads.items()}
    before = {k: v.copy() for k, v in params.named_tensors().items()}
    factor = sgd_step(params, grads, 0.3, clip_norm)
    if clip_norm is None:
        assert factor == 1.0
    else:
        assert factor == clip_global_norm(list(grads.values()), clip_norm)[1] < 1.0
    for name, arr in params.named_tensors().items():
        g = grads[name] if clip_norm is None else grads[name] * factor
        assert arr.tobytes() == (before[name] - 0.3 * g).tobytes(), name
        assert grads[name].tobytes() == kept[name].tobytes(), name


@pytest.mark.parametrize("clip_norm", [None, 1e-3], ids=["no-clip", "clip"])
def test_sgd_step_on_row_pairs_is_the_dense_update(clip_norm, make_params):
    """sgd_step given the embeddings' (rows, values) pairs, as train gives
    them, makes bitwise the dense update t - lr * (g * factor) of the
    gradients backward returns, untouched rows included. Its factor sums
    the touched rows' squares only, so it equals the dense one up to
    rounding."""
    batch = _edge_batch(STAIR_ROWS)
    params = make_params("hyb", seed=17)
    _, pairs = training._backward(params, batch)
    _, grads = backward(params, batch)
    assert isinstance(pairs["E_x"], tuple) and isinstance(pairs["E_y"], tuple)
    before = {k: v.copy() for k, v in params.named_tensors().items()}
    factor = sgd_step(params, pairs, 0.3, clip_norm)
    if clip_norm is None:
        assert factor == 1.0
    else:
        assert factor == pytest.approx(clip_global_norm(list(grads.values()), clip_norm)[1],
                                       rel=1e-15, abs=0)
        assert factor < 1.0
    for name, arr in params.named_tensors().items():
        assert arr.tobytes() == (before[name] - 0.3 * (grads[name] * factor)).tobytes(), name


def test_sgd_step_refuses_a_row_pair_that_lists_a_row_twice(make_params):
    params = make_params("glo")
    grads = {name: np.zeros_like(arr) for name, arr in params.named_tensors().items()}
    grads["E_y"] = (np.array([4, 6, 4]), np.ones((3, TINY.d_emb)))
    before = params.E_y.copy()
    with pytest.raises(ValueError, match="gradient 'E_y' lists a row twice"):
        sgd_step(params, grads, 0.1)
    np.testing.assert_array_equal(params.E_y, before)


def test_sgd_step_clips_a_gradient_whose_squares_overflow(make_params):
    """Two W_o entries of 1e300: the sum of squares overflows, the norm does
    not, and the step is the clipped one, not a dropped one."""
    params = make_params("glo", seed=9)
    grads = {name: np.zeros_like(arr) for name, arr in params.named_tensors().items()}
    grads["W_o"][4, 0] = grads["W_o"][5, 1] = 1e300
    before = params.W_o.copy()
    factor = sgd_step(params, grads, 0.5, clip_norm=1.0)
    assert factor == pytest.approx(1.0 / (math.sqrt(2.0) * 1e300), rel=1e-15)
    expected = before.copy()
    expected[4, 0] -= 0.5 * (1e300 * factor)
    expected[5, 1] -= 0.5 * (1e300 * factor)
    np.testing.assert_array_equal(params.W_o, expected)
    assert not np.array_equal(params.W_o, before)


def test_sgd_step_without_clipping_applies_a_gradient_whose_squares_overflow(make_params):
    """Unclipped, two W_o entries of 1e300 are finite: the step applies them
    unscaled, with factor 1.0."""
    params = make_params("glo", seed=9)
    grads = {name: np.zeros_like(arr) for name, arr in params.named_tensors().items()}
    grads["W_o"][4, 0] = grads["W_o"][5, 1] = 1e300
    expected = params.W_o - 0.5 * grads["W_o"]
    assert sgd_step(params, grads, 0.5) == 1.0
    np.testing.assert_array_equal(params.W_o, expected)


_WRONG_SHAPES = {
    "dense-broadcast": ("W_o", np.ones((1, TINY.d_r)), "has shape"),
    "negative-row": ("E_y", (np.array([-1]), np.ones((1, TINY.d_emb))), "rows must be"),
    "row-past-the-end": ("E_y", (np.array([TINY.v_resp]), np.ones((1, TINY.d_emb))),
                         "rows must be"),
    "float-rows": ("E_y", (np.array([3.0]), np.ones((1, TINY.d_emb))), "rows must be"),
    "one-values-row": ("E_y", (np.array([3, 5]), np.ones((1, TINY.d_emb))), "has shape"),
}


@pytest.mark.parametrize("case", list(_WRONG_SHAPES))
def test_sgd_step_refuses_a_gradient_of_the_wrong_shape_before_any_update(case, make_params):
    """A dense gradient not of its tensor's shape, or a row pair whose rows
    leave the table or whose values do not have one row per listed row, is
    refused by name rather than broadcast or wrapped."""
    name, grad, message = _WRONG_SHAPES[case]
    params = make_params("glo", seed=9)
    grads = {n: np.full(arr.shape, 0.25) for n, arr in params.named_tensors().items()}
    grads[name] = grad
    before = {k: v.copy() for k, v in params.named_tensors().items()}
    with pytest.raises(ValueError, match=f"gradient '{name}' {message}"):
        sgd_step(params, grads, 0.1)
    for n, arr in params.named_tensors().items():
        assert arr.tobytes() == before[n].tobytes(), n


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "row-pair"])
def test_sgd_step_refuses_a_non_finite_gradient_before_any_update(sparse, make_params):
    """With clipping on or off, a NaN or an infinity stops the step."""
    params = make_params("hyb", seed=9)
    grads = {name: np.full(arr.shape, 0.25) for name, arr in params.named_tensors().items()}
    grads["attn.v_a"][3] = math.nan
    if sparse:
        grads["E_x"] = (np.array([2, 7]), np.full((2, TINY.d_emb), math.inf))
    before = {k: v.copy() for k, v in params.named_tensors().items()}
    bad = "E_x" if sparse else "attn.v_a"
    for clip_norm in (1.0, None):
        with pytest.raises(ValueError, match=f"gradient '{bad}' holds a non-finite value"):
            sgd_step(params, grads, 0.1, clip_norm=clip_norm)
        for name, arr in params.named_tensors().items():
            assert arr.tobytes() == before[name].tobytes(), (clip_norm, name)


def test_sgd_step_updates_around_an_empty_tensor():
    """A loc model with d_a = 0 has attention tensors of no entries; the
    update passes over them and reaches every other tensor."""
    dims = Dims(d_h=8, d_emb=6, d_a=0, d_L=6, d_r=8, v_post=12, v_resp=12)
    params = init_params("loc", dims, Rng(2))
    before = {k: v.copy() for k, v in params.named_tensors().items()}
    grads = {name: np.ones_like(arr) for name, arr in before.items()}
    assert params.attn.W_a.size == 0
    sgd_step(params, grads, lr=0.5)
    for name, arr in params.named_tensors().items():
        np.testing.assert_array_equal(arr, before[name] - 0.5, err_msg=name)


@pytest.mark.parametrize("layout", ["c-order", "backward"])
@pytest.mark.parametrize("clip_norm", [1.0, None], ids=["clip", "no-clip"])
def test_sgd_step_peak_memory_is_a_block_not_a_tensor(clip_norm, layout):
    """With clipping on or off, the norm is a sum of dot products and the
    update runs through one small buffer: sgd_step allocates less than a
    tenth of the bytes of its largest tensor, W_o. The gradients are dense
    C-order arrays, or in the layout _backward gives them, W_o's stored
    as its transpose."""
    dims = Dims(d_h=8, d_emb=6, d_a=8, d_L=6, d_r=64, v_post=12, v_resp=8000)
    params = init_params("glo", dims, Rng(3))
    if layout == "c-order":
        grads = {name: np.full(arr.shape, 0.5) for name, arr in params.named_tensors().items()}
    else:
        grads = _new_params("glo", dims, lambda shape: np.full(shape, 0.5)).named_tensors()
        assert grads["W_o"].T.flags.c_contiguous
    largest = max(arr.nbytes for arr in params.named_tensors().values())
    assert largest == params.W_o.nbytes
    sgd_step(params, grads, 0.1, clip_norm=clip_norm)  # warm up lazy set-up
    tracemalloc.start()
    try:
        factor = sgd_step(params, grads, 0.1, clip_norm=clip_norm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert factor < 1.0 if clip_norm else factor == 1.0
    assert peak < 0.1 * largest


@pytest.mark.parametrize("scheme", ["glo", "hyb"])
def test_w_o_is_stored_as_its_transpose_wherever_params_come_from(scheme, tmp_path, make_params,
                                                                   small_batch):
    """W_o.T, the operand of every W_o product, is C-contiguous in params
    from init_params, load_checkpoint and init_hybrid_from_pretrained, and
    in the gradients _backward returns."""
    sources = {s: make_params(s, seed=31) for s in ("loc", "glo")}
    params = (init_hybrid_from_pretrained(sources["loc"], sources["glo"], Rng(5))[0]
              if scheme == "hyb" else sources["glo"])
    path = tmp_path / "model.nrm"
    save_checkpoint(params, path)
    _, grads = training._backward(params, small_batch)
    for source, w_o in (("params", params.W_o), ("load_checkpoint", load_checkpoint(path).W_o),
                        ("_backward", grads["W_o"])):
        assert w_o.shape == (TINY.v_resp, TINY.d_r), source
        assert w_o.T.flags.c_contiguous, source


def test_sgd_step_clips_large_gradients(make_params, small_batch):
    params = make_params("glo", seed=9)
    grads = {name: np.ones_like(arr) for name, arr in params.named_tensors().items()}
    total = math.sqrt(sum(a.size for a in grads.values()))
    before = {k: v.copy() for k, v in params.named_tensors().items()}
    factor = sgd_step(params, grads, lr=1.0, clip_norm=1.0)
    assert abs(factor - 1.0 / total) < 1e-12
    for name, arr in params.named_tensors().items():
        np.testing.assert_allclose(arr, before[name] - factor, rtol=1e-12)


# --- the stacked gates --------------------------------------------------------


_STACKS = {"W": ("W_z", "W_r", "W_h"), "U_zr": ("U_z", "U_r"), "b": ("b_z", "b_r", "b_h")}


def _assert_gates_view_their_stacks(params):
    for cell in (params.enc, params.enc_g, params.dec):
        if cell is None:
            continue
        d_h = len(cell.U_h)
        for stack, gates in _STACKS.items():
            for k, gate in enumerate(gates):
                rows = getattr(cell, stack)[k * d_h:(k + 1) * d_h]
                assert np.shares_memory(getattr(cell, gate), rows), gate
                np.testing.assert_array_equal(getattr(cell, gate), rows, err_msg=gate)


def test_gate_tensors_are_views_of_the_stacked_arrays(tmp_path, small_batch):
    """Each gate tensor of a GRU cell is a view of its rows of the cell's
    stacked array, however the parameters were made or updated, and cannot
    be rebound."""
    loc, glo = _sources()
    hyb, _ = init_hybrid_from_pretrained(loc, glo, Rng(5))
    save_checkpoint(hyb, tmp_path / "hyb.nrm")
    loaded = load_checkpoint(tmp_path / "hyb.nrm")
    for params in (loc, glo, hyb, loaded):
        _assert_gates_view_their_stacks(params)
    _, grads = backward(hyb, small_batch)
    before = hyb.dec.W_r.copy()
    sgd_step(hyb, grads, 0.5, clip_norm=1e-3)
    _assert_gates_view_their_stacks(hyb)
    assert not np.array_equal(hyb.dec.W_r, before)
    for gate in ("W_z", "U_r", "b_h"):
        with pytest.raises(AttributeError):
            setattr(hyb.dec, gate, np.zeros_like(getattr(hyb.dec, gate)))


# --- hybrid warm start -----------------------------------------------------


def _sources(seed=1):
    loc = init_params("loc", TINY, Rng(seed))
    glo = init_params("glo", TINY, Rng(seed + 100))
    return loc, glo


def test_init_hybrid_provenance_and_copies():
    loc, glo = _sources()
    params, provenance = init_hybrid_from_pretrained(loc, glo, Rng(5))
    assert params.scheme == "hyb"
    assert set(provenance.values()) == {"loc", "glo", "fresh"}
    assert {n for n, src in provenance.items() if src == "fresh"} == \
           {"L", "W_0", "W_c", "attn.U_a"}
    assert all(src == "glo" for n, src in provenance.items()
               if n.startswith("enc_g."))

    tensors = params.named_tensors()
    loc_t, glo_t = loc.named_tensors(), glo.named_tensors()
    for name, src in provenance.items():
        if src == "loc":
            np.testing.assert_array_equal(tensors[name], loc_t[name])
        elif src == "glo":
            np.testing.assert_array_equal(tensors[name],
                                          glo_t["enc." + name.split(".", 1)[1]])


def test_init_hybrid_provenance_follows_shapes():
    """With glo's d_a, d_L and d_r unlike loc's, glo still gives exactly the
    enc_g tensors, loc every tensor of its shape, and only the four tensors
    of doubled context width are fresh."""
    loc = init_params("loc", TINY, Rng(1))
    glo_dims = Dims(d_h=TINY.d_h, d_emb=TINY.d_emb, d_a=3, d_L=2, d_r=5,
                    v_post=TINY.v_post, v_resp=TINY.v_resp)
    glo = init_params("glo", glo_dims, Rng(2))
    params, provenance = init_hybrid_from_pretrained(loc, glo, Rng(5))
    fresh = {"L", "W_0", "W_c", "attn.U_a"}
    assert provenance == {
        n: "glo" if n.startswith("enc_g.") else "fresh" if n in fresh else "loc"
        for n in HYB_TENSOR_NAMES}
    assert list(provenance) == HYB_TENSOR_NAMES
    assert params.dims == loc.dims
    tensors, loc_t, glo_t = params.named_tensors(), loc.named_tensors(), glo.named_tensors()
    for name, src in provenance.items():
        if src == "loc":
            np.testing.assert_array_equal(tensors[name], loc_t[name])
        elif src == "glo":
            np.testing.assert_array_equal(tensors[name], glo_t["enc." + name[len("enc_g."):]])


def test_init_hybrid_fresh_tensors_have_doubled_context_width():
    loc, glo = _sources(2)
    params, _ = init_hybrid_from_pretrained(loc, glo, Rng(0))
    assert params.L.shape == (TINY.d_L, 2 * TINY.d_h)
    assert params.W_0.shape == (TINY.d_h, 2 * TINY.d_h)
    assert params.W_c.shape == (TINY.d_r, 2 * TINY.d_h)
    assert params.attn.U_a.shape == (TINY.d_a, 2 * TINY.d_h)


def test_init_hybrid_validates_sources():
    loc, glo = _sources(3)
    with pytest.raises(ValueError):
        init_hybrid_from_pretrained(glo, glo, Rng(0))
    with pytest.raises(ValueError):
        init_hybrid_from_pretrained(loc, loc, Rng(0))
    small = Dims(d_h=4, d_emb=TINY.d_emb, d_a=TINY.d_a, d_L=TINY.d_L,
                 d_r=TINY.d_r, v_post=TINY.v_post, v_resp=TINY.v_resp)
    with pytest.raises(ValueError, match="d_h"):
        init_hybrid_from_pretrained(loc, init_params("glo", small, Rng(0)), Rng(0))


# --- the training loop ------------------------------------------------------


def _toy_setup():
    pairs = toy_corpus()
    vocabs = (build_vocab(pairs, "post")[0], build_vocab(pairs, "response")[0])
    dims = Dims(d_h=16, d_emb=8, d_a=16, d_L=8, d_r=16,
                v_post=len(vocabs[0]), v_resp=len(vocabs[1]))
    return pairs, vocabs, dims


def test_train_reduces_loss_and_logs():
    pairs, vocabs, dims = _toy_setup()
    params = init_params("glo", dims, Rng(1))
    log = io.StringIO()
    config = TrainConfig(lr=0.5, epochs=8, batch_size=4)
    history = train(params, pairs, vocabs, config, Rng(2), log_stream=log)

    assert len(history) == 8
    assert history[0][0] == 1 and history[-1][0] == 8
    assert history[-1][1] < history[0][1]  # NLL fell
    for epoch, nll, ppl in history:
        assert ppl == pytest.approx(math.exp(nll))

    lines = log.getvalue().strip().split("\n")
    assert len(lines) == 8
    first = lines[0].split("\t")
    assert first[0] == "1" and float(first[1]) > 0


def test_train_zero_lr_keeps_loss_constant():
    pairs, vocabs, dims = _toy_setup()
    params = init_params("loc", dims, Rng(3))
    config = TrainConfig(lr=0.0, epochs=4, batch_size=32)  # one batch per epoch
    history = train(params, pairs, vocabs, config, Rng(4))
    nlls = [h[1] for h in history]
    np.testing.assert_allclose(nlls, nlls[0], rtol=1e-12)


def test_train_aborts_on_non_finite_loss():
    pairs, vocabs, dims = _toy_setup()
    params = init_params("glo", dims, Rng(5))
    params.E_y[5, 0] = np.nan
    with pytest.raises(RuntimeError, match="epoch 1"):
        train(params, pairs, vocabs, TrainConfig(epochs=1), Rng(0))


def test_train_rejects_empty_corpus():
    _, vocabs, dims = _toy_setup()
    with pytest.raises(ValueError):
        train(init_params("glo", dims, Rng(0)), [], vocabs, TrainConfig(), Rng(0))


@pytest.mark.parametrize("field, value", [
    ("lr", math.nan), ("lr", -0.1), ("clip_norm", 0.0), ("clip_norm", math.inf)])
def test_train_refuses_lr_and_clip_norm_before_any_batch(field, value):
    pairs, vocabs, dims = _toy_setup()
    params = init_params("glo", dims, Rng(0))
    before = {name: arr.copy() for name, arr in params.named_tensors().items()}
    config = TrainConfig(epochs=1, **{field: value})
    with mock.patch.object(training, "_backward", side_effect=AssertionError("ran")) as bwd, \
            pytest.raises(ValueError, match=rf"^{field} must be .*, got {value}$"):
        train(params, pairs, vocabs, config, Rng(0))
    assert bwd.call_count == 0
    for name, arr in params.named_tensors().items():
        np.testing.assert_array_equal(arr, before[name], err_msg=name)


def test_corpus_perplexity_consistent_with_batch_loss():
    pairs, vocabs, dims = _toy_setup()
    params = init_params("hyb", dims, Rng(6))
    nll, ppl = corpus_perplexity(params, pairs, vocabs, batch_size=7)
    assert ppl == pytest.approx(math.exp(nll))
    # against a single covering batch (order-independent mean)
    nll_one, _ = corpus_perplexity(params, pairs, vocabs, batch_size=64)
    assert nll == pytest.approx(nll_one, rel=1e-9)
