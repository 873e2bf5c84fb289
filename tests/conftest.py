"""Shared fixtures: a tiny model configuration that every suite reuses."""

import numpy as np
import pytest

from replygen import Dims, Rng
from replygen.corpus import BOS_ID, EOS_ID, _pack
from replygen.model import _context_terms, _decoder_step
from replygen.training import init_params

TINY = Dims(d_h=8, d_emb=6, d_a=8, d_L=6, d_r=8, v_post=12, v_resp=12)

# content ids live in 4..11 for the tiny 12-token vocabularies
FIRST_CONTENT = 4

# Every hyb tensor, in named_tensors and checkpoint order. glo and loc have
# this list without the tensors of the cells they lack: enc_g under both,
# attn under glo.
HYB_TENSOR_NAMES = [
    "E_x", "E_y",
    "enc.W_z", "enc.U_z", "enc.b_z", "enc.W_r", "enc.U_r", "enc.b_r",
    "enc.W_h", "enc.U_h", "enc.b_h",
    "enc_g.W_z", "enc_g.U_z", "enc_g.b_z", "enc_g.W_r", "enc_g.U_r", "enc_g.b_r",
    "enc_g.W_h", "enc_g.U_h", "enc_g.b_h",
    "dec.W_z", "dec.U_z", "dec.b_z", "dec.W_r", "dec.U_r", "dec.b_r",
    "dec.W_h", "dec.U_h", "dec.b_h",
    "L",
    "attn.W_a", "attn.U_a", "attn.v_a", "attn.b_a",
    "W_0", "W_s", "W_y", "W_c", "b_r", "W_o", "b_o",
]


def sigmoid(x):
    """The logistic function in the tanh form the GRU gates use, a reference
    for the model's in-place gates."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def tensor_names(scheme):
    """The pinned tensor names of a scheme, in order."""
    absent = {"glo": ("enc_g.", "attn."), "loc": ("enc_g.",), "hyb": ()}[scheme]
    return [n for n in HYB_TENSOR_NAMES if not n.startswith(absent)]


@pytest.fixture
def tiny_dims():
    return TINY


@pytest.fixture
def make_params():
    """Factory: make_params(scheme, seed=0, low=-0.1, high=0.1, dims=TINY)."""
    def factory(scheme, seed=0, low=-0.1, high=0.1, dims=TINY):
        return init_params(scheme, dims, Rng(seed), low=low, high=high)
    return factory


@pytest.fixture
def small_batch():
    """Three pairs with ragged lengths, so padding paths are exercised."""
    posts = [[4, 5, 6, 7], [8, 9, 10], [11, 4]]
    resps = [[BOS_ID, 5, 6, 7, EOS_ID], [BOS_ID, 8, 9, EOS_ID], [BOS_ID, 10, EOS_ID]]
    return _pack(posts, resps)


def step_log_probs(params, memory, s_prev, y_prev):
    """One decoder step of rows of s_prev on the decoders' memory, as every
    decoder runs it, with each row's log-probabilities formed whole:
    (s_t, shifted - log_s, alpha)."""
    s_t, shifted, log_s, alpha = _decoder_step(
        params, _context_terms(params, memory, s_prev), s_prev, y_prev)
    return s_t, shifted - log_s[:, None], alpha


def random_post(rng, max_len=6, vocab=TINY.v_post):
    """A random nonempty content-only post id list."""
    n = rng.randrange(max_len) + 1
    return [FIRST_CONTENT + rng.randrange(vocab - FIRST_CONTENT) for _ in range(n)]


def toy_corpus():
    """20 distinct post/response pairs over a small shared token set.

    The post determines the response (no post appears twice), which is what
    the overfit and warm-start tests need.
    """
    from replygen.corpus import PostResponsePair

    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
             "golf", "hotel"]
    pairs = []
    for i in range(20):
        d0, d1 = i % 8, i // 8  # distinct (d0, d1) per i
        post = [words[d0], words[d1], words[(d0 + d1) % 8]]
        resp = [words[(3 * d0 + 1) % 8], words[(d1 + 2) % 8]]
        if i % 2:
            resp.append(words[(d0 + 5) % 8])
        pairs.append(PostResponsePair(post, resp))
    return pairs
