import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from replygen import Dims, Rng
from replygen.corpus import BOS_ID, EOS_ID, build_vocab, _pack
from replygen.model import sequence_log_likelihood
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

from conftest import FIRST_CONTENT, TINY, toy_corpus


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


def test_batch_loss_ignores_padded_steps(make_params, small_batch):
    params = make_params("loc", seed=4)
    loss, n = batch_loss(params, small_batch)
    # re-pack with two extra all-pad response columns
    posts = [list(small_batch.post_ids[i, :small_batch.post_lengths[i]])
             for i in range(len(small_batch))]
    resps = [list(small_batch.resp_ids[i, :small_batch.resp_lengths[i]])
             for i in range(len(small_batch))]
    resps[0] = resps[0]  # row 0 already the longest; pad others further
    widened = _pack(posts, [resps[0] + [0, 0]] + resps[1:])
    widened.resp_mask[0, -2:] = 0.0
    widened.resp_ids[0, -2:] = 0
    widened.resp_lengths[0] -= 2
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


def test_backward_reports_same_loss(make_params, small_batch):
    """The cached forward of backward and the cache-free one of batch_loss
    give the same loss bitwise, for every scheme."""
    for scheme in ("glo", "loc", "hyb"):
        params = make_params(scheme, seed=5)
        loss_f, _ = batch_loss(params, small_batch)
        loss_b, _ = backward(params, small_batch)
        assert loss_f == loss_b, scheme


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


# --- finite differences ---------------------------------------------------


def test_grad_check_passes_on_wide_init(make_params, small_batch):
    params = make_params("glo", seed=11, low=-0.8, high=0.8)
    ok, report = grad_check(params, small_batch)
    worst = max(report.values())
    assert ok, f"worst relative error {worst:.3e}"
    assert len(report) == 28


def test_grad_check_sampling_path(make_params, small_batch):
    params = make_params("loc", seed=12, low=-0.8, high=0.8)
    ok, report = grad_check(params, small_batch, max_entries=3, rng=Rng(0))
    assert ok
    with pytest.raises(ValueError):
        grad_check(params, small_batch, max_entries=3)


def test_grad_check_catches_a_planted_error(make_params, small_batch):
    """Sanity that the checker can actually fail: corrupt one gradient by
    monkeypatching backward's output via a wrapper tolerance."""
    params = make_params("glo", seed=13, low=-0.8, high=0.8)
    ok, report = grad_check(params, small_batch, tol=1e-12)
    assert not ok  # float64 roundoff alone exceeds an impossible tolerance


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


def test_sgd_step_clips_large_gradients(make_params, small_batch):
    params = make_params("glo", seed=9)
    grads = {name: np.ones_like(arr) for name, arr in params.named_tensors().items()}
    total = math.sqrt(sum(a.size for a in grads.values()))
    before = {k: v.copy() for k, v in params.named_tensors().items()}
    factor = sgd_step(params, grads, lr=1.0, clip_norm=1.0)
    assert abs(factor - 1.0 / total) < 1e-12
    for name, arr in params.named_tensors().items():
        np.testing.assert_allclose(arr, before[name] - factor, rtol=1e-12)


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


def test_corpus_perplexity_consistent_with_batch_loss():
    pairs, vocabs, dims = _toy_setup()
    params = init_params("hyb", dims, Rng(6))
    nll, ppl = corpus_perplexity(params, pairs, vocabs, batch_size=7)
    assert ppl == pytest.approx(math.exp(nll))
    # against a single covering batch (order-independent mean)
    nll_one, _ = corpus_perplexity(params, pairs, vocabs, batch_size=64)
    assert nll == pytest.approx(nll_one, rel=1e-9)
