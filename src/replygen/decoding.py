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
with the products of the post's context, so a step multiplies no context
by L, by the decoder input's L c columns or by W_c. Under glo the context
is fixed and a step reads its products; under loc and hyb a step forms the
attention weights alpha over the post's positions (one W_a product of the
decoder states and the scores) and takes both context terms from one
product, alpha @ the post's projected states, plus the post's fixed terms
(g's products under hyb). The decoder GRU (its input's previous-token
columns, U_zr, U_h) and the output layer (W_s, W_y, W_o) then run once over
all rows.

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

import numpy as np

from .corpus import BOS_ID, EOS_ID, PAD_ID, UNK_ID
from .model import (ContextMemory, ModelParams, _context_terms, _decoder_step, _memory_rows,
                    _post_memory, _start_state)

__all__ = ["greedy_decode", "beam_search", "beam_search_posts", "multi_response",
           "first_token_best", "exhaustive_oracle"]

_ENUMERATION_GUARD = 1_000_000


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
    memory = _post_memory(params, post_ids)
    if max_len == 0:
        return [], 0.0
    s = _start_state(params, memory)
    y_prev = np.array([BOS_ID])
    tokens: list[int] = []
    score = 0.0
    for pos in range(1, max_len + 1):
        s, logp, _ = _decoder_step(params, memory, s, y_prev)
        row = logp[0]
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
    _, logp, _ = _decoder_step(params, memory, s, y_prev)
    return tokens, score + float(logp[0, EOS_ID])


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

    def select(self, logp: np.ndarray, beam_size: int) -> list[int]:
        """Keep the top beam_size of {finished so far} + {extensions} by
        cumulative log-prob. logp holds the step's log-probabilities, one
        C-contiguous row per live hypothesis; the live scores are added to it
        in place. Returns the row of each kept live hypothesis's parent.

        The top-k cut never partitions the whole (width x v_resp) score
        array. The best live row alone holds beam_size extensions scoring at
        least its own beam_size-th best score tau, so tau bounds the k-th
        best score from below: one compare pass keeps the survivors >= tau
        (every finite score when tau is -inf), and only they are partitioned
        for the exact k-th score. The candidates, ties at the cut included,
        are the same as a full partition would give.
        """
        v_resp = logp.shape[1]
        logp += self.scores[:, None]
        flat = logp.ravel()
        # the live scores are kept in descending order, ties included, so
        # row 0 is the best live row
        tau = _kth_largest(logp[0], beam_size)
        surv = np.flatnonzero(flat >= tau if tau > -np.inf else flat > -np.inf)
        vals = flat[surv]
        kth = _kth_largest(vals, beam_size)
        cand = surv[(vals >= kth) & (vals > -np.inf)]

        pool = [(sc, tok, True, -1) for sc, tok in self.finished]
        for i, sc in zip(cand.tolist(), flat[cand].tolist()):
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


def beam_search_posts(params: ModelParams, posts, beam_size: int = 10,
                      max_len: int = 30, suppress_unk: bool = False) -> list:
    """beam_search for each of several posts (id sequences), run together.
    Returns one hypothesis list per post, in input order.

    Each post keeps its own hypotheses, top-k cut and finished pool; the
    posts share only the decoder GRU's and output layer's products. A
    post's encoder, memory, start state and first step (one row) run
    alone, as in a solo search. From the second step on, the live rows of
    every unfinished post are stacked, and one _decoder_step runs the
    decoder GRU and output layer once over them, into one (rows, v_resp)
    buffer reused across steps and grown only when the row count does.
    Under glo each post's context products are formed once, in its
    memory: a solo search broadcasts its post's row of them, and a joined
    step gathers each live row's post's row. Under loc and hyb each
    post's context terms (model._context_terms) are formed every step on
    that post's rows against its own memory, unpadded (padding the
    memories to a common length would change the products over
    positions): its attention weights times its projected states, plus
    its fixed terms, so a post's product has the same shape joined or
    solo.
    """
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    v_resp = params.dims.v_resp
    banned = _banned_ids(v_resp, suppress_unk)
    memories = [_post_memory(params, ids) for ids in posts]
    if max_len == 0 or not posts:
        return [[([], 0.0)] for _ in posts]
    glo = params.attn is None
    if glo:
        # every post's context products, formed once in its memory: a solo
        # step broadcasts its post's row, a joined one gathers each live
        # row's post's row
        joined = memories[0] if len(posts) == 1 else ContextMemory(**{
            name: np.concatenate([getattr(m, name) for m in memories])
            for name in ("init", "lc", "xw_lc", "read_c")})
    beams = [_PostBeam() for _ in posts]
    buf = np.empty((0, v_resp))

    active = list(range(len(posts)))  # posts with live hypotheses, in input order
    states = np.concatenate([_start_state(params, m) for m in memories])
    prev = np.full(len(posts), BOS_ID)
    # position max_len + 1 exists only to close still-live hypotheses
    for pos in range(1, max_len + 2):
        widths = [len(beams[p].tokens) for p in active]
        rows = sum(widths)
        if len(buf) < rows:
            buf = np.empty((rows, v_resp))
        logp = buf[:rows]
        if pos == 1:
            # A one-row product takes other BLAS kernels than the same row
            # among many, so each post's first step runs alone.
            states_new = np.concatenate([
                _decoder_step(params, memories[i], states[i:i + 1], prev[i:i + 1],
                              out=logp[i:i + 1])[0] for i in range(rows)])
        elif glo:
            memory = (joined if len(posts) == 1
                      else _memory_rows(joined, np.repeat(active, widths)))
            states_new = _decoder_step(params, memory, states, prev, out=logp)[0]
        else:
            # each post's context terms on its own rows, in the product
            # shapes of its solo search
            parts = [_context_terms(params, memories[p], s)
                     for p, s in zip(active, np.split(states, np.cumsum(widths)[:-1]))]
            xw_c, read_c, _ = zip(*parts)
            terms = parts[0] if len(parts) == 1 else (np.concatenate(xw_c),
                                                      np.concatenate(read_c), None)
            states_new = _decoder_step(params, None, states, prev, out=logp, terms=terms)[0]
        logp[:, banned] = -np.inf
        if pos == 1:
            logp[:, EOS_ID] = -np.inf
        if pos == max_len + 1:
            eos_col = logp[:, EOS_ID].copy()
            logp[:] = -np.inf
            logp[:, EOS_ID] = eos_col

        parents, still, start = [], [], 0
        for p, width in zip(active, widths):
            kept = beams[p].select(logp[start:start + width], beam_size)
            parents.extend(start + k for k in kept)
            if kept:
                still.append(p)
            start += width
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
    memory = _post_memory(params, post_ids)
    alphabet = [i for i in range(v_resp) if i not in banned and i != EOS_ID]
    best: list = [None]

    def walk(state, y_prev, tokens, score):
        _state_new, logp, _ = _decoder_step(params, memory, state, y_prev)
        row = logp[0]
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
