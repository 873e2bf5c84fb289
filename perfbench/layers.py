"""Per-layer numbers of the traced run, and work counts from tensor shapes.

Each layer is timed by replaying its public replygen call on one training
batch or one beam step, several times, and taking the fastest call. The
set-up steps are timed by the run's own spans.
"""

from __future__ import annotations

import copy
import functools
import statistics
import time

import numpy as np

from replygen import corpus, decoding, model, numerics, training
from replygen.corpus import BOS_ID
from replygen.numerics import Rng

# The end-to-end metric each per-layer metric should move, and where.
MOVES = {
    "corpus.make_batches_ms": "train_tok_s, eval_tok_s; mostly loc-small",
    "corpus.pad_frac": "train_tok_s, eval_tok_s; mostly loc-small",
    "corpus.build_vocab_ms": "setup_s",
    "model.init_params_s": "setup_s on glo-mid and hyb-mid",
    "model.save_checkpoint_ms": "setup_s",
    "model.load_checkpoint_ms": "setup_s, generate_posts_s",
    "model.encode_ms": "train_tok_s, eval_tok_s; hyb runs two encoders",
    "model.attention_ms.train": "train_tok_s, eval_tok_s on hyb-mid, loc-small; n/a on glo-mid",
    "model.attention_ms.beam": "multi_s_per_post on hyb-mid; n/a on glo-mid",
    "model.dec_gru_ms": "train_tok_s, eval_tok_s, generate metrics",
    "model.decoder_step_ms.train": "train_tok_s, eval_tok_s",
    "model.decoder_step_ms.beam": "multi_s_per_post",
    "model.readout_ms.train": "derived: decoder_step - context_vector - gru_step; "
                              "train_tok_s, eval_tok_s on glo-mid",
    "training.forward_ms": "eval_tok_s",
    "training.forward_accounted": "check: (encode + steps x decoder_step) / forward, near 1",
    "training.backward_ms": "derived: backward - batch_loss; train_tok_s, most on hyb-mid",
    "training.sgd_step_ms": "train_tok_s",
    "training.clip_frac": "share of sgd_step calls in the train phase that clipped",
    "numerics.clip_global_norm_ms": "training.sgd_step_ms",
    "numerics.log_softmax_ms.beam": "multi_s_per_post",
    "decoding.pool_ms.w10": "derived: search step - decoder work; generate metrics on loc-small",
    "decoding.pool_ms.w500": "derived: search step - decoder work; multi_s_per_post everywhere",
    "decoding.resp_len_mean": "guard: must be 14, else decode work is not comparable",
    "decoding.distinct_first_frac": "share of the 500-wide beam multi_response returns",
    "decoding.rescore_err_max": "largest |score - sequence_log_likelihood| checked",
    "training.backward_gflops": "achieved: backward GFLOP (record's work counts) "
                                "/ training.backward_ms",
    "model.decoder_step_gflops.beam": "achieved: beam step GFLOP (record's work counts) "
                                      "/ model.decoder_step_ms.beam",
    "traced.*": "end-to-end metrics of the traced run; compare with the untraced run",
}


def fastest_ms(fns: dict, min_rounds: int = 3, seconds: float = 2.0,
               warm_below: float = 0.01) -> dict:
    """Fastest wall time in ms of each fn() in `fns`. The calls run in rounds,
    one timed call of each per round, until `min_rounds` and `seconds` pass.
    So every layer is timed over the same stretch of the run, and the fastest
    call of each falls in the machine's faster speed if the stretch has any:
    derived differences then subtract times taken at one speed. A call that
    took under `warm_below` seconds is made once untimed first, so it finds
    the caches as the same call does inside a loop, not as the previous
    replay left them."""
    times = {name: [] for name in fns}
    t_end = time.perf_counter() + seconds
    while len(next(iter(times.values()))) < min_rounds or time.perf_counter() < t_end:
        for name, fn in fns.items():
            if times[name] and times[name][0] < warm_below:
                fn()
            t0 = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - t0)
    return {name: 1e3 * min(t) for name, t in times.items()}


def _tiled(enc: model.EncodedPost, n: int) -> model.EncodedPost:
    """One post's encoding broadcast to n rows, as beam search widens it."""
    def rows(a):
        return None if a is None else np.broadcast_to(a, (n,) + a.shape[1:])
    return model.EncodedPost(states=rows(enc.states), mask=rows(enc.mask),
                             lengths=rows(enc.lengths), final=rows(enc.final),
                             global_final=rows(enc.global_final))


# Rows that time context_vector. glo has no attention: there the call only
# returns the final encoder state, so the run record labels these rows n/a.
ATTENTION_ROWS = ("model.attention_ms.train", "model.attention_ms.beam")
GLO_ATTENTION_NA = "n/a: glo has no attention; context_vector returns the final encoder state"

# Full-width steps of the short searches replayed to time the beam pool.
POOL_STEPS = 3


def measure(tr, params, pairs, vocabs, seed, post_ids, widths, max_len, clip_norm,
            work) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    `pairs` is one training batch worth of pairs, and `post_ids` the post
    whose beam steps are replayed at each of `widths`.
    """
    out = {}

    def span_ms(name):
        return 1e3 * statistics.median(tr.seconds(name))

    def make():
        return corpus.make_batches(pairs, vocabs, len(pairs), Rng(seed), max_len)

    batch = make()[0]
    out["corpus.pad_frac"] = (1.0 - batch.resp_mask.sum() / batch.resp_mask.size, "fraction")
    out["corpus.build_vocab_ms"] = (span_ms("corpus.build_vocab"), "ms")
    out["model.init_params_s"] = (span_ms("model.init_params") / 1e3, "s")
    out["model.save_checkpoint_ms"] = (span_ms("model.save_checkpoint"), "ms")
    out["model.load_checkpoint_ms"] = (span_ms("model.load_checkpoint"), "ms")

    # one training batch
    enc = model.encode(params, batch.post_ids, batch.post_mask)
    s0 = model.decoder_init(params, enc)
    y0 = batch.resp_ids[:, 0]
    c0, _ = model.context_vector(params, enc, s0)
    u0 = np.concatenate([params.E_y[y0], c0 @ params.L.T], axis=1)
    _, grads = training.backward(params, batch)
    grad_list = list(grads.values())
    updated = copy.deepcopy(params)  # sgd_step replays update this copy
    fns = {
        "make_batches": make,
        "encode": lambda: model.encode(params, batch.post_ids, batch.post_mask),
        "step": lambda: model.decoder_step(params, enc, s0, y0),
        "attend": lambda: model.context_vector(params, enc, s0),
        "gru": lambda: model.gru_step(params.dec, u0, s0),
        "forward": lambda: training.batch_loss(params, batch),
        "backward": lambda: training.backward(params, batch),
        "sgd": lambda: training.sgd_step(updated, grads, 0.1, clip_norm),
        "clip": lambda: numerics.clip_global_norm(grad_list, clip_norm),
    }

    # one beam step, at each width the run decodes with
    enc1 = model.encode_post(params, post_ids)
    s1 = model.decoder_init(params, enc1)
    fns["encode_post"] = lambda: model.encode_post(params, post_ids)
    fns["decoder_init"] = lambda: model.decoder_init(params, enc1)
    wide = max(widths)
    logits = np.random.default_rng(seed).standard_normal((wide, params.dims.v_resp))
    for w in (1,) + tuple(widths):
        args = (params, _tiled(enc1, w), np.repeat(s1, w, axis=0), np.full(w, BOS_ID))
        fns[f"step{w}"] = functools.partial(model.decoder_step, *args)
        fns[f"search{w}"] = functools.partial(decoding.beam_search, params, post_ids, w,
                                              POOL_STEPS)
        fns[f"exp{w}"] = functools.partial(np.exp, logits[:w])
    fns["attend_beam"] = functools.partial(model.context_vector, params, _tiled(enc1, wide),
                                           np.repeat(s1, wide, axis=0))
    fns["log_softmax"] = functools.partial(numerics.log_softmax, logits, axis=1)

    ms = fastest_ms(fns)
    steps = batch.resp_ids.shape[1] - 1
    backward = ms["backward"] - ms["forward"]
    out["corpus.make_batches_ms"] = (ms["make_batches"], "ms")
    out["model.encode_ms"] = (ms["encode"], "ms")
    out["model.attention_ms.train"] = (ms["attend"], "ms")
    out["model.dec_gru_ms"] = (ms["gru"], "ms")
    out["model.decoder_step_ms.train"] = (ms["step"], "ms")
    out["model.readout_ms.train"] = (ms["step"] - ms["attend"] - ms["gru"], "ms")
    out["training.forward_ms"] = (ms["forward"], "ms")
    out["training.forward_accounted"] = ((ms["encode"] + steps * ms["step"]) / ms["forward"],
                                         "ratio")
    out["training.backward_ms"] = (backward, "ms")
    out["training.sgd_step_ms"] = (ms["sgd"], "ms")
    out["numerics.clip_global_norm_ms"] = (ms["clip"], "ms")
    out["model.attention_ms.beam"] = (ms["attend_beam"], "ms")
    out["model.decoder_step_ms.beam"] = (ms[f"step{wide}"], "ms")
    out["numerics.log_softmax_ms.beam"] = (ms["log_softmax"], "ms")
    # A search of POOL_STEPS makes one decoder step at width 1, then
    # POOL_STEPS at full width. decoder_step also returns exp(log-probs),
    # which a search step does not compute, so that exp is taken off.
    for w in widths:
        decode = (ms["encode_post"] + ms["decoder_init"] + ms["step1"] - ms["exp1"]
                  + POOL_STEPS * (ms[f"step{w}"] - ms[f"exp{w}"]))
        out[f"decoding.pool_ms.w{w}"] = ((ms[f"search{w}"] - decode) / POOL_STEPS, "ms")

    out["training.backward_gflops"] = (
        work["train_step"]["backward_gflop"] / (backward / 1e3), "GFLOP/s")
    out["model.decoder_step_gflops.beam"] = (
        work["beam_step"]["gflop"] / (ms[f"step{wide}"] / 1e3), "GFLOP/s")
    return out


def _decoder_gemms(scheme, d, rows, t_post):
    """(batch, m, k, n) of each matrix product in one decoder step.

    This copies the products of replygen.model as of this benchmark's
    commit, the per-step recomputation of U_a h_j included. A change to
    the model's products must update it, or the work counts and the
    GFLOP/s derived from them go stale."""
    d_ctx = 2 * d.d_h if scheme == "hyb" else d.d_h
    gemms = []
    if scheme != "glo":
        gemms += [(1, rows, d.d_h, d.d_a),            # W_a s
                  (1, rows * t_post, d_ctx, d.d_a),   # U_a h_j, recomputed each step
                  (1, rows * t_post, d.d_a, 1),       # v_a . tanh(...)
                  (rows, 1, t_post, d_ctx)]           # sum_j alpha_j h_j
    gemms += [(1, rows, d_ctx, d.d_L)]
    gemms += [(1, rows, d.d_emb + d.d_L, d.d_h)] * 3 + [(1, rows, d.d_h, d.d_h)] * 3
    gemms += [(1, rows, d.d_h, d.d_r), (1, rows, d.d_emb, d.d_r), (1, rows, d_ctx, d.d_r),
              (1, rows, d.d_r, d.v_resp)]
    return gemms


def _totals(gemms):
    flops = sum(2.0 * b * m * k * n for b, m, k, n in gemms)
    moved = sum(8.0 * b * (m * k + k * n + m * n) for b, m, k, n in gemms)
    return flops, moved


def work_counts(scheme, dims, batch, t_post, t_resp, beam, beam_post_len) -> dict:
    """GEMM FLOPs and bytes of one training step and one beam step, computed
    from tensor shapes. Bytes count each product's operands and result once
    per call, in float64. A training step is the forward pass over a batch
    of `batch` posts of `t_post` tokens and `t_resp - 1` decoder steps, and
    a backward pass counted as two products (input and weight gradient) the
    size of each forward product."""
    d_ctx = 2 * dims.d_h if scheme == "hyb" else dims.d_h
    encoders = 2 if scheme == "hyb" else 1
    enc = ([(1, batch, dims.d_emb, dims.d_h)] * 3 + [(1, batch, dims.d_h, dims.d_h)] * 3)
    forward = (enc * t_post * encoders + [(1, batch, d_ctx, dims.d_h)]
               + _decoder_gemms(scheme, dims, batch, t_post) * (t_resp - 1))
    f_flops, f_bytes = _totals(forward)
    b_flops, b_bytes = _totals(_decoder_gemms(scheme, dims, beam, beam_post_len))
    return {
        "train_step": {"gflop": 3 * f_flops / 1e9, "mb": 3 * f_bytes / 1e6,
                       "forward_gflop": f_flops / 1e9, "backward_gflop": 2 * f_flops / 1e9,
                       "batch": batch, "post_len": t_post, "decoder_steps": t_resp - 1},
        "beam_step": {"gflop": b_flops / 1e9, "mb": b_bytes / 1e6, "width": beam,
                      "post_len": beam_post_len},
    }
