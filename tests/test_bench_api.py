"""The package calls that perfbench/ makes, in the forms it makes them.

perfbench/ changes only together with the benchmark, so a package change
that broke one of its calls would otherwise show only when the benchmark
runs. Each call below copies the form perfbench/layers.py or
perfbench/bench.py uses, and checks what the benchmark reads of the result,
not its values.
"""

import copy
from unittest import mock

import numpy as np
import pytest

from replygen import Rng, corpus, decoding, model, numerics, training
from replygen.corpus import BOS_ID

from conftest import TINY, toy_corpus


def _tiled(enc, n):
    """perfbench/layers.py's broadcast of one post's encoding to n rows."""
    def rows(a):
        return None if a is None else np.broadcast_to(a, (n,) + a.shape[1:])
    return model.EncodedPost(states=rows(enc.states), mask=rows(enc.mask),
                             lengths=rows(enc.lengths), final=rows(enc.final),
                             global_final=rows(enc.global_final))


@pytest.mark.parametrize("scheme", ["glo", "loc", "hyb"])
def test_layer_replay_calls(scheme):
    pairs = toy_corpus()[:6]
    vocabs = tuple(corpus.build_vocab(pairs, side, cap=TINY.v_post - 4)[0]
                   for side in ("post", "response"))
    params = model.init_params(scheme, TINY, Rng(0))
    batch = corpus.make_batches(pairs, vocabs, len(pairs), Rng(1), 5)[0]
    assert 0.0 <= 1.0 - batch.resp_mask.sum() / batch.resp_mask.size < 1.0

    enc = model.encode(params, batch.post_ids, batch.post_mask)
    s0 = model.decoder_init(params, enc)
    y0 = batch.resp_ids[:, 0]
    c0, _ = model.context_vector(params, enc, s0)
    u0 = np.concatenate([params.E_y[y0], c0 @ params.L.T], axis=1)
    assert model.gru_step(params.dec, u0, s0).shape == s0.shape
    _, probs, _ = model.decoder_step(params, enc, s0, y0)
    assert probs.shape == (len(pairs), TINY.v_resp)

    loss, _ = training.batch_loss(params, batch)
    _, grads = training.backward(params, batch)
    assert isinstance(grads, dict) and np.isfinite(loss)
    updated = copy.deepcopy(params)
    assert isinstance(training.sgd_step(updated, grads, 0.1, 1.0), float)
    clipped, factor = numerics.clip_global_norm(list(grads.values()), 1.0)
    assert len(clipped) == len(grads) and factor <= 1.0

    post_ids = corpus.encode(pairs[0].post, vocabs[0])
    enc1 = model.encode_post(params, post_ids)
    s1 = model.decoder_init(params, enc1)
    for w in (1, 4):
        _, probs, _ = model.decoder_step(params, _tiled(enc1, w), np.repeat(s1, w, axis=0),
                                         np.full(w, BOS_ID))
        assert probs.shape == (w, TINY.v_resp)
        c, _ = model.context_vector(params, _tiled(enc1, w), np.repeat(s1, w, axis=0))
        assert len(c) == w
        assert decoding.beam_search(params, post_ids, w, 3)
    logits = np.random.default_rng(0).standard_normal((4, params.dims.v_resp))
    assert numerics.log_softmax(logits, axis=1).shape == logits.shape


def test_train_calls_sgd_step_through_the_module():
    """bench.Tracer.wrap patches training.sgd_step to count clipping; train
    must reach it through that attribute."""
    pairs = toy_corpus()[:4]
    vocabs = tuple(corpus.build_vocab(pairs, side)[0] for side in ("post", "response"))
    dims = model.Dims(d_h=8, d_emb=6, d_a=8, d_L=6, d_r=8,
                      v_post=len(vocabs[0]), v_resp=len(vocabs[1]))
    params = model.init_params("glo", dims, Rng(2))
    config = training.TrainConfig(lr=0.1, epochs=1, batch_size=2, clip_norm=1.0,
                                  max_response_len=5)
    factors = []
    real = training.sgd_step

    def traced(*args, **kwargs):
        factors.append(real(*args, **kwargs))
        return factors[-1]

    with mock.patch.object(training, "sgd_step", traced):
        training.train(params, pairs, vocabs, config, Rng(3))
    assert len(factors) == 2
