"""Response decoding: greedy, beam search (one post, or several searched
together), per-first-word selection, and a brute-force enumeration oracle.

All of them return content token ids (no begin/end markers) with a
cumulative log-probability that always includes the closing end-marker term,
so every returned hypothesis re-scores to the same value with
model.sequence_log_likelihood (up to floating-point roundoff). Consequences
of that convention: the empty response is never returned (the end marker is
not allowed as the first emission), and a hypothesis cut off at max_len still
pays the end-marker log-probability from its final state.

Scores carry no length normalization, and finished hypotheses compete with
unfinished ones inside each top-k cut. Ties anywhere are broken toward the
lexicographically smaller id sequence. The pad and begin markers are never
emitted; suppress_unk additionally bans the unknown token. A response
vocabulary that leaves no token to emit (the four reserved ids alone, under
suppress_unk) is refused with a ValueError before any decoding.

Every decoder reads one memory per post (model._post_memory), built once
with the products of the post's context, and runs every step as
model._context_terms on that memory, then model._decoder_step, so a step
multiplies no context by L, by the decoder input's L c columns or by W_c.
Under glo the context is fixed and a step reads its products; under loc
and hyb a step forms the attention weights alpha over the post's positions
(one W_a product of the decoder states and the scores) and takes both
context terms from one product, alpha @ the post's projected states, plus
the post's fixed terms (g's products under hyb). The decoder GRU (its
input's previous-token columns, U_zr, U_h) and the output layer (W_s, W_y,
W_o) then run once over all rows. The output layer returns each row's
logits shifted by their maximum and its normalizer, not the
log-probabilities: each decoder forms the log-probabilities it reads,
shifted - normalizer, with numerics.log_softmax's bits. Greedy decoding
and the oracle form a step's whole row, and beam search the scores of its
cut's survivors only (_PostBeam.select).

beam_search_posts runs the searches of several posts together, and
beam_search is its one-post case. Each post gets the hypotheses of its solo
search, in the same order. A post's attention and context products run on
its own rows, in the shapes of its solo search, so they have its bits. Its
scores are bit-identical to the solo search's wherever every post keeps
more live rows than the BLAS threshold of the products the posts share:
below a small row count, a row's product bits depend on how many rows share
the product. With numpy 2.4 and OpenBLAS on one thread, at the benchmark's
dims, that is 1 row at W_o's 8000 columns (in the layout W_o is stored in)
and at the decoder input's 768, at most 2 at U_zr's 512, and at most 4 at
the 256 columns of U_h, W_s and W_y. Below the threshold, scores may differ
in the last bits, and only a tie within that roundoff could reorder
hypotheses. The per-post product alpha @ projected states is never shared
between posts; its threshold, at its 1024 columns (3 d_h + d_r) and any
post length, is 1 row, so re-scoring's one-row steps can differ there from
a search's in the last bits.
"""

from __future__ import annotations

import itertools

import numpy as np

from .corpus import BOS_ID, EOS_ID, PAD_ID, UNK_ID
from .model import (ModelParams, _context_terms, _decoder_step, _post_memory, _start_state,
                    encode_post)

__all__ = ["greedy_decode", "beam_search", "beam_search_posts", "multi_response",
           "first_token_best", "exhaustive_oracle"]

_ENUMERATION_GUARD = 1_000_000
# _PostBeam.select's threshold margin, relative to the magnitudes of the
# terms that form a score
_SCORE_ROUNDING = 4 * np.finfo(float).eps


def _banned_ids(v_resp: int, suppress_unk: bool) -> list:
    """The ids no decoder emits: the padding and begin markers, and <unk>
    under suppress_unk. A ValueError when they and the end marker leave no
    id to start a response with."""
    banned = [PAD_ID, BOS_ID, UNK_ID] if suppress_unk else [PAD_ID, BOS_ID]
    if v_resp <= sum(i < v_resp for i in (EOS_ID, *banned)):
        raise ValueError(f"no response token can be emitted: the {v_resp} ids of the response "
                         f"vocabulary are all markers{' or <unk>' if suppress_unk else ''}")
    return banned


def greedy_decode(params: ModelParams, post_ids, max_len: int = 30,
                  suppress_unk: bool = False):
    """Argmax decoding. Returns (token ids, log-prob); ties take the smallest id.

    max_len = 0 is the degenerate no-step case: empty response, log-prob 0.
    The post is encoded at every max_len, so a post that cannot be (an
    empty one, an id outside [0, v_post)) is refused with a ValueError.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    banned = _banned_ids(params.dims.v_resp, suppress_unk)
    memory = _post_memory(params, encode_post(params, post_ids))
    if max_len == 0:
        return [], 0.0
    s = _start_state(params, memory)
    y_prev = np.array([BOS_ID])
    tokens: list[int] = []
    score = 0.0
    for pos in range(1, max_len + 1):
        s, shifted, log_s, _ = _decoder_step(params, _context_terms(params, memory, s), s,
                                             y_prev)
        row = shifted[0] - log_s[0]
        row[banned] = -np.inf
        if pos == 1:
            row[EOS_ID] = -np.inf
        tok = int(np.argmax(row))
        score += float(row[tok])
        if tok == EOS_ID:
            return tokens, score
        tokens.append(tok)
        y_prev = np.array([tok])
    # length cap reached: close with the end marker so the score re-checks
    _, shifted, log_s, _ = _decoder_step(params, _context_terms(params, memory, s), s, y_prev)
    return tokens, score + float(shifted[0, EOS_ID] - log_s[0])


def _kth_largest(a: np.ndarray, k: int) -> float:
    """The k-th largest entry of a, or -inf when a has at most k entries."""
    if a.size <= k:
        return -np.inf
    return np.partition(a, a.size - k)[a.size - k]


class _PostBeam:
    """One post's hypotheses during a search: the live ones (token tuples and
    cumulative log-probs, one decoder row each) and the finished ones."""

    def __init__(self):
        self.tokens: list[tuple] = [()]
        self.scores = np.zeros(1)
        self.finished: list[tuple] = []  # (score, tokens)

    def select(self, shifted: np.ndarray, log_s: np.ndarray, beam_size: int) -> list[int]:
        """Keep the top beam_size of {finished so far} + {extensions} by
        cumulative log-prob. Row r of shifted, a C-contiguous array, holds
        live hypothesis r's shifted logits for the step and log_s[r] their
        normalizer (model._decoder_step), so extension j scores
        (shifted[r, j] - log_s[r]) + scores[r]: the bits of the row's
        log-softmax plus its score. Returns the row of each kept live
        hypothesis's parent.

        Scores are formed for a survivor set only, and the top-k cut never
        partitions the whole (width x v_resp) array. The best live row
        alone holds beam_size extensions scoring at least its own
        beam_size-th best score tau, so tau bounds the k-th best score from
        below. Row r's extensions reach tau only where shifted is at least
        (tau - scores[r]) + log_s[r]. One compare pass keeps each row's
        entries at or above that threshold lowered by _SCORE_ROUNDING *
        (|tau| + |scores[r]| + |log_s[r]|): 8 units of roundoff of those
        magnitudes, where the sums that form a score and the threshold
        round by at most 5, so every extension whose score rounds to tau or
        above is kept (every finite entry when tau is -inf). Only their
        scores are formed; they are filtered exactly against tau and
        partitioned for the exact k-th score. The candidates, ties at the
        cut included, are the same as a full partition of every score
        would give.
        """
        v_resp = shifted.shape[1]
        # the live scores are kept in descending order, ties included, so
        # row 0 is the best live row
        tau = _kth_largest((shifted[0] - log_s[0]) + self.scores[0], beam_size)
        if tau > -np.inf:
            bound = (tau - self.scores) + log_s
            bound -= _SCORE_ROUNDING * (abs(tau) + np.abs(self.scores) + np.abs(log_s))
            surv = np.flatnonzero(shifted >= bound[:, None])
        else:
            surv = np.flatnonzero(shifted > -np.inf)
        rows = surv // v_resp
        vals = (shifted.ravel()[surv] - log_s[rows]) + self.scores[rows]
        keep = vals >= tau if tau > -np.inf else vals > -np.inf
        surv, vals = surv[keep], vals[keep]
        kth = _kth_largest(vals, beam_size)
        cand = (vals >= kth) & (vals > -np.inf)

        pool = [(sc, tok, True, -1) for sc, tok in self.finished]
        for i, sc in zip(surv[cand].tolist(), vals[cand].tolist()):
            parent, tok = divmod(i, v_resp)
            if tok == EOS_ID:
                pool.append((sc, self.tokens[parent], True, -1))
            else:
                pool.append((sc, self.tokens[parent] + (tok,), False, parent))
        pool.sort(key=lambda h: (-h[0], h[1]))
        kept = pool[:beam_size]

        self.finished = [(sc, tok) for sc, tok, done, _ in kept if done]
        live = [h for h in kept if not h[2]]
        self.tokens = [h[1] for h in live]
        self.scores = np.array([h[0] for h in live])
        return [h[3] for h in live]

    def results(self) -> list:
        self.finished.sort(key=lambda h: (-h[0], h[1]))
        return [(list(tokens), score) for score, tokens in self.finished]


def _joined_terms(parts, widths):
    """The context terms of consecutive posts' rows, from each post's own
    (_context_terms on its widths[k] rows), concatenated: under glo a
    post's terms are one row, repeated over its rows. One post's terms
    are its own; the alpha of several is not kept."""
    if len(parts) == 1:
        return parts[0]
    xw_c, read_c = (np.concatenate(column) for column in list(zip(*parts))[:2])
    if len(xw_c) < sum(widths):
        xw_c, read_c = np.repeat(xw_c, widths, axis=0), np.repeat(read_c, widths, axis=0)
    return xw_c, read_c, None


def beam_search_posts(params: ModelParams, posts, beam_size: int = 10,
                      max_len: int = 30, suppress_unk: bool = False) -> list:
    """beam_search for each of several posts (id sequences), run together.
    Returns one hypothesis list per post, in input order.

    Each post keeps its own hypotheses, top-k cut and finished pool; the
    posts share only the decoder GRU's and output layer's products. A
    post's encoder, memory and start state are its own. Every step has one
    body: each post's context terms (model._context_terms) are formed on
    that post's live rows against its own memory, unpadded (padding the
    memories to a common length would change the products over
    positions), so a post's products have the same shapes joined or solo.
    Under glo they are the post's one row of fixed products, which a solo
    search uses as it is and a joined step repeats over the post's rows;
    under loc and hyb, its attention weights times its projected states,
    plus its fixed terms. The posts' terms are concatenated, and one
    _decoder_step runs the decoder GRU and output layer over a span of
    posts' rows, into one (rows, v_resp) buffer reused across steps and
    grown only when the row count does. The span is every post from the
    second step on, and each post alone at the first, whose one row is
    then computed as in a solo search.
    """
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    v_resp = params.dims.v_resp
    banned = _banned_ids(v_resp, suppress_unk)
    memories = [_post_memory(params, encode_post(params, ids)) for ids in posts]
    if max_len == 0 or not posts:
        return [[([], 0.0)] for _ in posts]
    beams = [_PostBeam() for _ in posts]
    buf = np.empty((0, v_resp))

    active = list(range(len(posts)))  # posts with live hypotheses, in input order
    states = np.concatenate([_start_state(params, m) for m in memories])
    prev = np.full(len(posts), BOS_ID)
    # position max_len + 1 exists only to close still-live hypotheses
    for pos in range(1, max_len + 2):
        widths = [len(beams[p].tokens) for p in active]
        edges = [0, *itertools.accumulate(widths)]  # each active post's rows
        if len(buf) < edges[-1]:
            buf = np.empty((edges[-1], v_resp))
        shifted = buf[:edges[-1]]
        # A one-row product takes other BLAS kernels than the same row among
        # many, so each post's one-row first step runs alone: a span of
        # posts per step, one post each at the first.
        cuts = range(len(active) + 1) if pos == 1 else (0, len(active))
        spans = []
        for a, b in zip(cuts, cuts[1:]):
            parts = [_context_terms(params, memories[p], states[edges[k]:edges[k + 1]])
                     for k, p in enumerate(active[a:b], a)]
            rows = slice(edges[a], edges[b])
            s_t, _, log_s, _ = _decoder_step(params, _joined_terms(parts, widths[a:b]),
                                             states[rows], prev[rows], out=shifted[rows])
            spans.append((s_t, log_s))
        states_new, log_s = (c[0] if len(c) == 1 else np.concatenate(c) for c in zip(*spans))
        shifted[:, banned] = -np.inf
        if pos == 1:
            shifted[:, EOS_ID] = -np.inf
        if pos == max_len + 1:
            eos_col = shifted[:, EOS_ID].copy()
            shifted[:] = -np.inf
            shifted[:, EOS_ID] = eos_col

        parents, still = [], []
        for p, start, end in zip(active, edges, edges[1:]):
            kept = beams[p].select(shifted[start:end], log_s[start:end], beam_size)
            parents.extend(start + k for k in kept)
            if kept:
                still.append(p)
        active = still
        if not active:
            break
        states = states_new[parents]
        prev = np.array([tokens[-1] for p in active for tokens in beams[p].tokens])

    return [beam.results() for beam in beams]


def beam_search(params: ModelParams, post_ids, beam_size: int = 10,
                max_len: int = 30, suppress_unk: bool = False):
    """Left-to-right beam search, width `beam_size`, no length normalization.

    Each step extends every live hypothesis over the emittable vocabulary and
    keeps the top beam_size of {finished so far} + {extensions} by cumulative
    log-prob. Returns finished hypotheses as (token ids, log-prob), sorted by
    score descending (ties: lexicographically smaller ids first). This is the
    one-post case of beam_search_posts. At max_len 0 it returns the empty
    response alone, once the post is checked as at any other max_len.
    """
    return beam_search_posts(params, [post_ids], beam_size, max_len, suppress_unk)[0]


def first_token_best(hyps) -> list:
    """The best hypothesis per distinct first token of a ranked beam_search
    result, in its order. The empty response of the max_len 0 result is a
    group of its own."""
    best: dict[tuple, tuple] = {}
    for tokens, score in hyps:  # already in final tie-broken order
        best.setdefault(tuple(tokens[:1]), (tokens, score))
    return list(best.values())


def multi_response(params: ModelParams, post_ids, beam_size: int = 500,
                   max_len: int = 30, suppress_unk: bool = False):
    """Wide beam, then the single best hypothesis per distinct first token.

    Returns (token ids, log-prob) pairs sorted by score descending; within a
    first-token group, score ties go to the lexicographically smaller ids.
    """
    return first_token_best(beam_search(params, post_ids, beam_size, max_len, suppress_unk))


def exhaustive_oracle(params: ModelParams, post_ids, max_len: int = 3,
                      suppress_unk: bool = False):
    """Global argmax over every response of 1..max_len content tokens.

    Walks the full prefix tree with incremental decoder steps, scoring each
    sequence closed by the end marker. Refuses spaces over
    |V_resp| ** max_len > 1e6. Returns a single (token ids, log-prob).
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1 for enumeration, got {max_len}")
    v_resp = params.dims.v_resp
    banned = _banned_ids(v_resp, suppress_unk)
    if v_resp ** max_len > _ENUMERATION_GUARD:
        raise ValueError(
            f"enumeration space {v_resp}^{max_len} exceeds the "
            f"{_ENUMERATION_GUARD} guard")
    memory = _post_memory(params, encode_post(params, post_ids))
    alphabet = [i for i in range(v_resp) if i not in banned and i != EOS_ID]
    best: list = [None]

    def walk(state, y_prev, tokens, score):
        _state_new, shifted, log_s, _ = _decoder_step(
            params, _context_terms(params, memory, state), state, y_prev)
        row = shifted[0] - log_s[0]
        if tokens:
            closed = (score + float(row[EOS_ID]), tokens)
            if best[0] is None or (-closed[0], closed[1]) < (-best[0][0], best[0][1]):
                best[0] = closed
        if len(tokens) < max_len:
            for tok in alphabet:
                walk(_state_new, np.array([tok]), tokens + (tok,),
                     score + float(row[tok]))

    walk(_start_state(params, memory), np.array([BOS_ID]), (), 0.0)
    score, tokens = best[0]
    return list(tokens), score
