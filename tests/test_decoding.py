import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replygen import Dims, Rng
from replygen.corpus import BOS_ID, EOS_ID, PAD_ID, UNK_ID, build_vocab
from replygen.decoding import (
    beam_search,
    beam_search_posts,
    exhaustive_oracle,
    greedy_decode,
    multi_response,
)
from replygen.model import (
    _decoder_step,
    _post_memory,
    _start_state,
    sequence_log_likelihood,
)
from replygen.training import TrainConfig, init_params, train

from conftest import FIRST_CONTENT, TINY, random_post, toy_corpus


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


@pytest.mark.parametrize("decode", [
    lambda p, post: greedy_decode(p, post, max_len=0),
    lambda p, post: beam_search(p, post, 3, 0),
    lambda p, post: beam_search_posts(p, [[4, 5], post], 3, 0),
    lambda p, post: multi_response(p, post, 3, 0),
], ids=["greedy", "beam", "beam-posts", "multi"])
@pytest.mark.parametrize("post, message", [([99], "post id 99 is outside the vocabulary"),
                                           ([], "cannot encode an empty post")],
                         ids=["outside", "empty"])
def test_max_len_zero_still_refuses_a_bad_post(decode, post, message, make_params):
    """max_len 0 runs no step, but a post the decoders could not encode is
    refused as at any other max_len."""
    with pytest.raises(ValueError, match=message):
        decode(make_params("loc"), post)


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


def full_partition_beam_search(params, post_ids, beam_size, max_len, suppress_unk, seen):
    """Beam search that cuts the top beam_size by partitioning the whole
    (width x v_resp) score array, with the same pool and tie-break as
    beam_search. seen collects which selection cases the steps hit: "tie"
    when the k-th score sits inside a tie group that the cut splits, and
    "tau_finite" / "tau_inf" for the best live row's beam_size-th score."""
    memory = _post_memory(params, post_ids)
    v_resp = params.dims.v_resp
    banned = [PAD_ID, BOS_ID, UNK_ID] if suppress_unk else [PAD_ID, BOS_ID]
    live_tokens, live_scores = [()], np.zeros(1)
    live_states, live_prev = _start_state(params, memory), np.array([BOS_ID])
    finished = []
    for pos in range(1, max_len + 2):
        states_new, logp, _ = _decoder_step(params, memory, live_states, live_prev)
        logp[:, banned] = -np.inf
        if pos == 1:
            logp[:, EOS_ID] = -np.inf
        if pos == max_len + 1:
            eos_col = logp[:, EOS_ID].copy()
            logp[:] = -np.inf
            logp[:, EOS_ID] = eos_col
        logp += live_scores[:, None]
        flat = logp.ravel()
        if flat.size > beam_size:
            kth = np.partition(flat, flat.size - beam_size)[flat.size - beam_size]
        else:
            kth = -np.inf
        cand = np.flatnonzero((flat >= kth) & (flat > -np.inf))

        best_row = np.sort(logp[np.argmax(live_scores)])[::-1]
        finite = best_row.size >= beam_size and best_row[beam_size - 1] > -np.inf
        seen.add("tau_finite" if finite else "tau_inf")
        if kth > -np.inf and (flat > kth).sum() < beam_size < cand.size:
            seen.add("tie")

        pool = [(sc, tok, True, -1) for sc, tok in finished]
        for i in cand:
            parent, tok = divmod(int(i), v_resp)
            sc = float(flat[i])
            if tok == EOS_ID:
                pool.append((sc, live_tokens[parent], True, -1))
            else:
                pool.append((sc, live_tokens[parent] + (tok,), False, parent))
        pool.sort(key=lambda h: (-h[0], h[1]))
        kept = pool[:beam_size]
        finished = [(sc, tok) for sc, tok, done, _ in kept if done]
        live = [h for h in kept if not h[2]]
        if not live:
            break
        live_tokens = [h[1] for h in live]
        live_scores = np.array([h[0] for h in live])
        live_states = states_new[[h[3] for h in live]]
        live_prev = np.array([h[1][-1] for h in live])
    finished.sort(key=lambda h: (-h[0], h[1]))
    return [(list(tokens), score) for score, tokens in finished]


def test_beam_selection_matches_a_full_partition_exactly(make_params):
    """The survivor-set cut keeps exactly the candidates a partition of the
    whole score array keeps, ties at the k-th score included, so every
    hypothesis and score is bit-identical."""
    rng = Rng(45)
    seen = set()
    for seed in range(12):
        scheme = ("glo", "loc", "hyb")[seed % 3]
        params = make_params(scheme, seed=seed, low=-1.0, high=1.0)
        if seed % 2:
            # two more copies of word 5: equal log-probs in every row, so
            # the cut can fall inside a tie group
            for dup in (7, 9):
                params.W_o[dup] = params.W_o[5]
                params.b_o[dup] = params.b_o[5]
        post = random_post(rng)
        for beam in (1, 2, 3, 7, 15, 40):
            for max_len in range(1, 6):
                for suppress_unk in (False, True):
                    got = beam_search(params, post, beam, max_len, suppress_unk)
                    want = full_partition_beam_search(params, post, beam, max_len,
                                                      suppress_unk, seen)
                    assert got == want, (scheme, seed, beam, max_len, suppress_unk)
    assert seen == {"tie", "tau_finite", "tau_inf"}


@pytest.mark.parametrize("scheme", ["glo", "loc", "hyb"])
def test_beam_search_peak_memory_is_one_score_buffer(scheme):
    """A wide search holds one (rows x v_resp) buffer of scores, not a
    second full-size copy for the top-k cut: one post at beam 200, and a
    joined chunk of five posts at beam 40, 200 rows either way."""
    dims = Dims(d_h=16, d_emb=8, d_a=16, d_L=8, d_r=16, v_post=40, v_resp=4000)
    params = init_params(scheme, dims, Rng(11), low=-0.5, high=0.5)
    chunk = [[4, 9, 17, 23], [5], [6, 7, 8, 9, 10, 11], [12, 13], [30, 31, 32]]
    for posts, beam in (([chunk[0]], 200), (chunk, 40)):
        beam_search_posts(params, posts, beam_size=beam, max_len=6)  # warm up lazy set-up
        tracemalloc.start()
        try:
            results = beam_search_posts(params, posts, beam_size=beam, max_len=6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(len(hyps) == beam for hyps in results)  # the search ran at full width
        assert peak < 1.5 * len(posts) * beam * dims.v_resp * 8


# --- the joined search over several posts -----------------------------------------

POSTS = st.lists(st.lists(st.integers(FIRST_CONTENT, TINY.v_post - 1), min_size=1, max_size=8),
                 min_size=1, max_size=6, unique_by=len)


@settings(max_examples=100, deadline=None)
@given(scheme=st.sampled_from(["glo", "loc", "hyb"]), seed=st.integers(0, 2 ** 16),
       v_resp=st.integers(5, 9), posts=POSTS, beam=st.integers(1, 7),
       max_len=st.integers(1, 5), suppress_unk=st.booleans())
def test_joined_search_matches_solo_searches(scheme, seed, v_resp, posts, beam, max_len,
                                             suppress_unk):
    """Posts of different lengths searched together give each post the
    hypotheses of its solo search, in the same order, with scores equal up
    to the last bits (a row's product bits may depend on how many rows share
    it) that re-score exactly; at saturating width the best is the global
    optimum."""
    dims = Dims(d_h=8, d_emb=6, d_a=8, d_L=6, d_r=8, v_post=TINY.v_post, v_resp=v_resp)
    params = init_params(scheme, dims, Rng(seed), low=-1.0, high=1.0)
    joined = beam_search_posts(params, posts, beam, max_len, suppress_unk)
    assert len(joined) == len(posts)
    for post, hyps in zip(posts, joined):
        solo = beam_search(params, post, beam, max_len, suppress_unk)
        assert [tokens for tokens, _ in hyps] == [tokens for tokens, _ in solo]
        for (tokens, score), (_, solo_score) in zip(hyps, solo):
            assert abs(score - solo_score) <= 1e-12
            assert abs(score - rescore(params, post, tokens)) <= 1e-9

    depth = min(max_len, 3)
    emittable = v_resp - (4 if suppress_unk else 3)  # not pad, begin, end (or unk)
    width = sum(emittable ** k for k in range(1, depth + 1))  # every content sequence
    for post, hyps in zip(posts, beam_search_posts(params, posts, width, depth, suppress_unk)):
        o_tokens, o_score = exhaustive_oracle(params, post, depth, suppress_unk)
        assert hyps[0][0] == o_tokens
        assert abs(hyps[0][1] - o_score) <= 1e-9


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


def test_multi_response_degenerate_max_len(make_params):
    """max_len 0 gives beam_search's degenerate no-step result."""
    params = make_params("glo")
    assert beam_search(params, [4, 5], max_len=0) == [([], 0.0)]
    assert multi_response(params, [4, 5], max_len=0) == [([], 0.0)]


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


# --- every decoder -------------------------------------------------------------


@pytest.mark.parametrize("decode", [greedy_decode, beam_search, multi_response,
                                    exhaustive_oracle], ids=lambda f: f.__name__)
def test_a_response_vocabulary_of_markers_alone_is_refused_up_front(decode):
    """With the four reserved ids as the whole response vocabulary, as
    build-vocab writes it when every response token is a reserved spelling,
    suppress_unk leaves only the end marker, which no response may start
    with: every decoder raises the same ValueError. Without suppress_unk,
    <unk> is emittable, and each decodes <unk> runs that re-score to their
    scores."""
    dims = Dims(d_h=8, d_emb=6, d_a=8, d_L=6, d_r=8, v_post=12, v_resp=4)
    for scheme in ("glo", "loc", "hyb"):
        params = init_params(scheme, dims, Rng(3))
        with pytest.raises(ValueError, match="no response token can be emitted"):
            decode(params, [4, 5], max_len=2, suppress_unk=True)
        result = decode(params, [4, 5], max_len=2)
        hyps = result if isinstance(result, list) else [result]
        assert hyps, scheme
        for tokens, score in hyps:
            assert tokens and set(tokens) == {UNK_ID}, scheme
            assert abs(score - rescore(params, [4, 5], tokens)) < 1e-12, scheme
