import numpy as np
import pytest

from replygen import Dims, Rng
from replygen.corpus import BOS_ID, EOS_ID, PAD_ID, UNK_ID, build_vocab
from replygen.decoding import (
    beam_search,
    exhaustive_oracle,
    greedy_decode,
    multi_response,
)
from replygen.model import sequence_log_likelihood
from replygen.training import TrainConfig, init_params, train

from conftest import TINY, random_post, toy_corpus


@pytest.fixture(scope="module")
def toy_model():
    """A small loc model trained enough that its output is far from uniform."""
    pairs = toy_corpus()
    vocabs = (build_vocab(pairs, "post")[0], build_vocab(pairs, "response")[0])
    dims = Dims(d_h=16, d_emb=8, d_a=16, d_L=8, d_r=16,
                v_post=len(vocabs[0]), v_resp=len(vocabs[1]))
    params = init_params("loc", dims, Rng(7))
    train(params, pairs, vocabs, TrainConfig(lr=0.5, epochs=30, batch_size=4),
          Rng(8))
    return params, vocabs, pairs


def rescore(params, post, tokens):
    return sequence_log_likelihood(params, post, tokens)


# --- greedy ----------------------------------------------------------------


def test_greedy_rescores_to_its_own_score(toy_model):
    params, vocabs, pairs = toy_model
    for p in pairs[:6]:
        post = [vocabs[0].id_for(t) for t in p.post]
        tokens, score = greedy_decode(params, post, max_len=10)
        assert tokens, "greedy must emit at least one content token"
        assert abs(score - rescore(params, post, tokens)) < 1e-9


def test_greedy_token_hygiene(make_params):
    rng = Rng(40)
    for seed in range(8):
        params = make_params("glo", seed=seed, low=-0.5, high=0.5)
        tokens, _ = greedy_decode(params, random_post(rng), max_len=6)
        assert len(tokens) <= 6
        assert PAD_ID not in tokens and BOS_ID not in tokens
        assert EOS_ID not in tokens


def test_greedy_suppress_unk(make_params):
    rng = Rng(41)
    for seed in range(12):
        params = make_params("hyb", seed=seed, low=-0.5, high=0.5)
        tokens, _ = greedy_decode(params, random_post(rng), max_len=6,
                                  suppress_unk=True)
        assert UNK_ID not in tokens


def test_greedy_degenerate_max_len(make_params):
    assert greedy_decode(make_params("glo"), [4, 5], max_len=0) == ([], 0.0)
    with pytest.raises(ValueError):
        greedy_decode(make_params("glo"), [4, 5], max_len=-1)


def test_greedy_cap_still_scores_the_close(make_params):
    """Sequences cut at max_len must still re-score exactly."""
    rng = Rng(42)
    for seed in range(6):
        params = make_params("loc", seed=seed, low=-0.3, high=0.3)
        post = random_post(rng)
        tokens, score = greedy_decode(params, post, max_len=2)
        assert len(tokens) <= 2
        assert abs(score - rescore(params, post, tokens)) < 1e-9


# --- beam search -------------------------------------------------------------


def test_beam_one_equals_greedy(make_params):
    rng = Rng(43)
    for seed in range(20):
        scheme = ("glo", "loc", "hyb")[seed % 3]
        params = make_params(scheme, seed=seed, low=-0.5, high=0.5)
        post = random_post(rng)
        g_tokens, g_score = greedy_decode(params, post, max_len=5)
        results = beam_search(params, post, beam_size=1, max_len=5)
        assert len(results) == 1
        b_tokens, b_score = results[0]
        assert b_tokens == g_tokens
        assert abs(b_score - g_score) < 1e-9


def test_beam_outputs_are_sorted_unique_and_rescorable(toy_model):
    params, vocabs, pairs = toy_model
    for p in pairs[:5]:
        post = [vocabs[0].id_for(t) for t in p.post]
        results = beam_search(params, post, beam_size=10, max_len=8)
        assert 1 <= len(results) <= 10
        scores = [s for _, s in results]
        assert scores == sorted(scores, reverse=True)
        assert len({tuple(t) for t, _ in results}) == len(results)
        for tokens, score in results:
            assert 1 <= len(tokens) <= 8
            assert abs(score - rescore(params, post, tokens)) < 1e-9


def test_beam_respects_bans(make_params):
    rng = Rng(44)
    for seed in range(6):
        params = make_params("loc", seed=seed, low=-0.5, high=0.5)
        for tokens, _ in beam_search(params, random_post(rng), beam_size=6,
                                     max_len=4, suppress_unk=True):
            assert not {PAD_ID, BOS_ID, EOS_ID, UNK_ID} & set(tokens)


def test_beam_deterministic(toy_model):
    params, vocabs, _ = toy_model
    post = [vocabs[0].id_for(t) for t in ["alpha", "bravo", "charlie"]]
    a = beam_search(params, post, beam_size=7, max_len=6)
    b = beam_search(params, post, beam_size=7, max_len=6)
    assert a == b


@pytest.mark.parametrize("scheme", ["glo", "loc", "hyb"])
def test_beam_saturating_width_matches_oracle(scheme, toy_model, make_params):
    if scheme == "loc":
        params, vocabs, pairs = toy_model
        posts = [[vocabs[0].id_for(t) for t in p.post] for p in pairs[:4]]
    else:
        params = make_params(scheme, seed=14, low=-0.5, high=0.5)
        rng = Rng(44)
        posts = [random_post(rng) for _ in range(4)]
    v = params.dims.v_resp
    saturate = sum((v - 3) ** k for k in range(1, 4))  # every content sequence
    for post in posts:
        o_tokens, o_score = exhaustive_oracle(params, post, max_len=3)
        b_tokens, b_score = beam_search(params, post, beam_size=saturate,
                                        max_len=3)[0]
        assert b_tokens == o_tokens
        assert abs(b_score - o_score) < 1e-9


def test_beam_validates_arguments(make_params):
    params = make_params("glo")
    with pytest.raises(ValueError):
        beam_search(params, [4], beam_size=0)
    with pytest.raises(ValueError):
        beam_search(params, [4], max_len=-2)
    assert beam_search(params, [4], max_len=0) == [([], 0.0)]


def test_wider_beam_never_worse_on_pinned_cases(toy_model):
    """Not a theorem at arbitrary widths, but these pinned cases hold and
    guard the top-k plumbing."""
    params, vocabs, pairs = toy_model
    for p in pairs[:4]:
        post = [vocabs[0].id_for(t) for t in p.post]
        best = [beam_search(params, post, beam_size=w, max_len=5)[0][1]
                for w in (1, 3, 10, 40)]
        for narrow, wide in zip(best, best[1:]):
            assert wide >= narrow - 1e-12


# --- multi-response -----------------------------------------------------------


def test_multi_response_distinct_first_tokens(toy_model):
    params, vocabs, pairs = toy_model
    for p in pairs[:5]:
        post = [vocabs[0].id_for(t) for t in p.post]
        results = multi_response(params, post, beam_size=60, max_len=6)
        firsts = [tokens[0] for tokens, _ in results]
        assert len(set(firsts)) == len(firsts)
        for tokens, score in results:
            assert abs(score - rescore(params, post, tokens)) < 1e-9


def test_multi_response_keeps_the_best_per_first_token(toy_model):
    params, vocabs, _ = toy_model
    post = [vocabs[0].id_for(t) for t in ["delta", "alpha", "echo"]]
    beam = beam_search(params, post, beam_size=60, max_len=6)
    multi = multi_response(params, post, beam_size=60, max_len=6)
    for tokens, score in multi:
        group = [s for t, s in beam if t[0] == tokens[0]]
        assert score == max(group)


# --- the enumeration oracle ---------------------------------------------------


def test_oracle_guard_refuses_large_spaces(make_params):
    with pytest.raises(ValueError, match="guard"):
        exhaustive_oracle(make_params("glo"), [4], max_len=6)  # 12**6 > 1e6
    with pytest.raises(ValueError):
        exhaustive_oracle(make_params("glo"), [4], max_len=0)


def test_oracle_beats_or_ties_every_beam_hypothesis(toy_model):
    params, vocabs, pairs = toy_model
    post = [vocabs[0].id_for(t) for t in pairs[0].post]
    _, o_score = exhaustive_oracle(params, post, max_len=3)
    for _, score in beam_search(params, post, beam_size=12, max_len=3):
        assert o_score >= score - 1e-12
