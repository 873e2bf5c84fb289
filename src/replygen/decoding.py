"""Response decoding: greedy, beam search, per-first-word selection, and a
brute-force enumeration oracle.

All four return content token ids (no begin/end markers) with a cumulative
log-probability that always includes the closing end-marker term, so every
returned hypothesis re-scores to the same value with
model.sequence_log_likelihood (up to floating-point roundoff). Consequences
of that convention: the empty response is never returned (the end marker is
not allowed as the first emission), and a hypothesis cut off at max_len still
pays the end-marker log-probability from its final state.

Scores carry no length normalization, and finished hypotheses compete with
unfinished ones inside each top-k cut. Ties anywhere are broken toward the
lexicographically smaller id sequence. The pad and begin markers are never
emitted; suppress_unk additionally bans the unknown token.
"""

from __future__ import annotations

import numpy as np

from .corpus import BOS_ID, EOS_ID, PAD_ID, UNK_ID
from .model import ModelParams, _decoder_step, _start_state, context_memory, encode_post

__all__ = ["greedy_decode", "beam_search", "multi_response", "exhaustive_oracle"]

_ENUMERATION_GUARD = 1_000_000


def _banned_ids(suppress_unk: bool) -> list:
    return [PAD_ID, BOS_ID, UNK_ID] if suppress_unk else [PAD_ID, BOS_ID]


def greedy_decode(params: ModelParams, post_ids, max_len: int = 30,
                  suppress_unk: bool = False):
    """Argmax decoding. Returns (token ids, log-prob); ties take the smallest id.

    max_len = 0 is the degenerate no-step case: empty response, log-prob 0.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    if max_len == 0:
        return [], 0.0
    memory = context_memory(params, encode_post(params, post_ids))
    s = _start_state(params, memory)
    y_prev = np.array([BOS_ID])
    banned = _banned_ids(suppress_unk)
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


def beam_search(params: ModelParams, post_ids, beam_size: int = 10,
                max_len: int = 30, suppress_unk: bool = False):
    """Left-to-right beam search, width `beam_size`, no length normalization.

    Each step extends every live hypothesis over the emittable vocabulary and
    keeps the top beam_size of {finished so far} + {extensions} by cumulative
    log-prob. Returns finished hypotheses as (token ids, log-prob), sorted by
    score descending (ties: lexicographically smaller ids first).
    """
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    if max_len == 0:
        return [([], 0.0)]
    # one post's memory, broadcast over the live hypotheses
    memory = context_memory(params, encode_post(params, post_ids))
    v_resp = params.dims.v_resp
    banned = _banned_ids(suppress_unk)

    # live hypotheses, kept in parallel lists/arrays
    live_tokens: list[tuple] = [()]
    live_scores = np.zeros(1)
    live_states = _start_state(params, memory)
    live_prev = np.array([BOS_ID])
    finished: list[tuple] = []  # (score, tokens)

    # position max_len + 1 exists only to close still-live hypotheses
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


def multi_response(params: ModelParams, post_ids, beam_size: int = 500,
                   max_len: int = 30, suppress_unk: bool = False):
    """Wide beam, then the single best hypothesis per distinct first token.

    Returns (token ids, log-prob) pairs sorted by score descending; within a
    first-token group, score ties go to the lexicographically smaller ids.
    """
    hyps = beam_search(params, post_ids, beam_size, max_len, suppress_unk)
    best: dict[int, tuple] = {}
    for tokens, score in hyps:  # already in final tie-broken order
        if tokens[0] not in best:
            best[tokens[0]] = (tokens, score)
    return list(best.values())


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
    if v_resp ** max_len > _ENUMERATION_GUARD:
        raise ValueError(
            f"enumeration space {v_resp}^{max_len} exceeds the "
            f"{_ENUMERATION_GUARD} guard")
    memory = context_memory(params, encode_post(params, post_ids))
    alphabet = [i for i in range(v_resp) if i not in _banned_ids(suppress_unk)
                and i != EOS_ID]
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
