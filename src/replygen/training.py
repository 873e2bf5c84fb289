"""Maximum-likelihood training with hand-derived gradients.

The loss is the mean negative log-likelihood per framed response token
(content tokens plus the closing end marker); every post and every response
in a batch must have at least one token. Backpropagation through the
decoder, the attention, and the encoder recurrences is written out
explicitly; there is no autodiff anywhere. One forward pass records a tape
(every GRU step's cache, the attention weights, the log-probabilities) that
`batch_loss` drops and `backward` reads. `grad_check` compares every
analytic gradient against central finite differences and is the standing
proof that the derivation matches the forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import make_batches
from .model import (
    ContextMemory,
    Dims,
    ModelParams,
    _check_ids,
    _context,
    _decoder_gru,
    _encode,
    _mask_lengths,
    _output_layer,
    _packing,
    _params_from_tensors,
    _score_tanh,
    _start_state,
    context_memory,
    init_params,
)
from .numerics import Rng, clip_global_norm

__all__ = [
    "TrainConfig",
    "init_params",
    "batch_loss",
    "backward",
    "grad_check",
    "sgd_step",
    "init_hybrid_from_pretrained",
    "train",
    "corpus_perplexity",
]


@dataclass
class TrainConfig:
    lr: float = 0.1
    epochs: int = 10
    batch_size: int = 16
    clip_norm: float | None = 1.0
    max_response_len: int | None = 30


def _head(memory: ContextMemory, n: int) -> ContextMemory:
    """The first n rows of a context memory, as views."""
    return ContextMemory(*(None if a is None else a[:n]
                           for a in (memory.init, memory.values, memory.keys, memory.mask)))


def _forward(params: ModelParams, batch):
    """Shared forward pass. Returns (loss, token_count, tape).

    The recurrences are packed. The rows are taken once in _packing's order
    of their target counts (response length less the begin marker), so the
    rows with a target at step t are the prefix of counts[t] rows, and the
    loop runs the context and the decoder GRU of step t over those rows
    only, against views of the context memory's first counts[t] rows. It
    ends at the last step with a live row. The encoders get the posts in
    the same order and pack them by post length themselves.

    Every per-target array is packed step-major: step t's rows are
    counts[0] + ... + counts[t - 1] onwards. Under teacher forcing the
    readout and the output softmax feed nothing back into the recurrence,
    so _output_loss runs them once over all those rows after the loop. The
    targets' log-probabilities go back to the caller's row order before the
    loss is summed step by step. tape is what the backward pass reads:
    (counts, input ids, memory, encoder tapes, s_0, steps, c, output
    cache), where steps holds every decoder step's (_gru_step_full cache,
    attention weights alpha), and the input ids and c are packed; each
    encoder tape holds its own order and counts.
    """
    resp_ids = np.asarray(batch.resp_ids, dtype=np.int64)
    _check_ids(resp_ids, params.dims.v_resp, "response")
    # a response row holds the begin marker, its tokens and the end marker
    lengths = _mask_lengths(batch.resp_mask, "resp_mask", "response")
    if (lengths < 3).any():
        raise ValueError("every response in a batch must have at least one token")
    b = len(resp_ids)
    if len(batch.post_ids) != b:
        raise ValueError(f"a batch needs one post per response, got {len(batch.post_ids)} "
                         f"posts and {b} responses")
    order, counts = _packing(lengths - 1)
    enc_out, enc_tapes = _encode(params, batch.post_ids, batch.post_mask, order)
    memory = context_memory(params, enc_out)
    s0 = _start_state(params, memory)

    steps = len(counts)
    live = np.arange(b) < np.array(counts)[:, None]  # (steps, B), rows in order
    by_step = resp_ids[order, :steps + 1].T
    inputs, targets = by_step[:-1][live], by_step[1:][live]
    s_t = np.empty((len(targets), params.dims.d_h))
    c = np.empty((len(targets), memory.init.shape[1]))
    dec_steps = []
    s, start = s0, 0
    for n in counts:
        rows = slice(start, start + n)
        c[rows], alpha = _context(params, _head(memory, n), s[:n])
        s, _, cache = _decoder_gru(params, c[rows], s[:n], inputs[rows])
        s_t[rows] = s
        dec_steps.append((cache, alpha))
        start += n
    target_logp, output = _output_loss(params, s_t, params.E_y[inputs], c, targets)

    by_row = np.zeros((steps, b))
    by_row[live] = target_logp
    loss_sum = 0.0
    for row in by_row[:, np.argsort(order)]:  # caller order, summed step by step
        loss_sum -= float(row.sum())

    token_count = float(len(targets))
    tape = (counts, inputs, memory, enc_tapes, s0, dec_steps, c, output)
    return loss_sum / token_count, token_count, tape


def _output_loss(params: ModelParams, s_t, y_emb, c, targets):
    """The teacher-forced output layer over the packed target rows.

    s_t, y_emb and c are (n_real, width), one row per real target; padding
    rows are never formed. Runs _output_layer in one call and returns
    (target_logp, cache): each row's target log-probability, and the
    targets, the inputs, the readout and the (n_real, v_resp)
    log-probabilities.
    """
    rout, logp = _output_layer(params, s_t, y_emb, c)
    return logp[np.arange(len(targets)), targets], (targets, (s_t, y_emb, c), rout, logp)


def _output_backward(grads, params, cache, lam: float):
    """Adjoint of _output_loss, given its cache and the loss weight lam of
    every target. Accumulates the W_o, b_o, W_s, W_y, W_c and b_r gradients
    into the gradient ModelParams grads, from one product each over the
    packed rows, and returns the packed gradients w.r.t. s_t, y_emb and c.
    The cached log-probabilities become dlogits in place.
    """
    targets, (s_t, y_emb, c), rout, dlogits = cache
    # softmax cross-entropy: dlogits = lam * (probs - onehot(target))
    np.exp(dlogits, out=dlogits)
    dlogits[np.arange(len(targets)), targets] -= 1.0
    dlogits *= lam

    grads.W_o += dlogits.T @ rout
    grads.b_o += dlogits.sum(axis=0)
    da = (dlogits @ params.W_o) * (1.0 - rout ** 2)
    grads.W_s += da.T @ s_t
    grads.W_y += da.T @ y_emb
    grads.W_c += da.T @ c
    grads.b_r += da.sum(axis=0)
    return [da @ w for w in (params.W_s, params.W_y, params.W_c)]


def batch_loss(params: ModelParams, batch):
    """Mean per-token negative log-likelihood of a batch; returns (loss, n_tokens)."""
    loss, token_count, _ = _forward(params, batch)
    return loss, token_count


def _gru_backward(dcell, cell, cache, dh):
    """Backprop one cell step, given its _gru_step_full cache. Accumulates
    into dcell; returns (dx, dh_prev)."""
    x, h_prev, z, r, hbar = cache
    dz = dh * (hbar - h_prev)
    dhbar = dh * z
    dh_prev = dh * (1.0 - z)

    dpre_h = dhbar * (1.0 - hbar * hbar)
    dcell.W_h += dpre_h.T @ x
    dcell.U_h += dpre_h.T @ (r * h_prev)
    dcell.b_h += dpre_h.sum(axis=0)
    drh = dpre_h @ cell.U_h
    dr = drh * h_prev
    dh_prev += drh * r

    dpre_z = dz * z * (1.0 - z)
    dcell.W_z += dpre_z.T @ x
    dcell.U_z += dpre_z.T @ h_prev
    dcell.b_z += dpre_z.sum(axis=0)
    dh_prev += dpre_z @ cell.U_z

    dpre_r = dr * r * (1.0 - r)
    dcell.W_r += dpre_r.T @ x
    dcell.U_r += dpre_r.T @ h_prev
    dcell.b_r += dpre_r.sum(axis=0)
    dh_prev += dpre_r @ cell.U_r

    dx = dpre_z @ cell.W_z + dpre_r @ cell.W_r + dpre_h @ cell.W_h
    return dx, dh_prev


def _attention_backward(grads, params, memory, dmemory, alpha, s_prev, dc):
    """Backprop one step of the additive scorer and the weighted sum, given
    the step's attention weights alpha and decoder state s_prev.

    The gradients w.r.t. the memory's values and keys are accumulated into
    dmemory; _memory_backward maps them to U_a, b_a and the encoder states
    once per batch. Padded positions carry alpha == 0 exactly, so every term
    below vanishes there without explicit masking. Returns the gradient
    w.r.t. s_prev.
    """
    a = params.attn
    ta = _score_tanh(params, memory, s_prev)
    d_a = ta.shape[2]

    # c = sum_j alpha_j h_j
    dalpha = (memory.values @ dc[:, :, None])[:, :, 0]
    dmemory.values += alpha[:, :, None] * dc[:, None, :]

    # softmax jacobian, then the scorer
    de = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    grads.attn.v_a += de.reshape(-1) @ ta.reshape(-1, d_a)
    dpre = (de[:, :, None] * a.v_a) * (1.0 - ta * ta)
    dmemory.keys += dpre
    dproj = dpre.sum(axis=1)
    grads.attn.W_a += dproj.T @ s_prev
    return dproj @ a.W_a


def _memory_backward(grads, params, memory, dmemory):
    """Adjoint of context_memory, given the gradient w.r.t. each of its
    fields. Accumulates the U_a and b_a gradients and returns the gradients
    (dstates, dfinal, dglobal_final) w.r.t. the encoder states, the final
    state and the second encoder's final state. dstates is None under glo,
    which reads no state but the final one; dglobal_final is (B, 0) unless
    the scheme is hyb."""
    d_h = params.dims.d_h
    dinit = dmemory.init
    if memory.keys is None:
        return None, dinit, dinit[:, d_h:]
    dvalues = dmemory.values
    dk = dmemory.keys.reshape(-1, dmemory.keys.shape[2])
    grads.attn.U_a += dk.T @ memory.values.reshape(-1, dvalues.shape[2])
    grads.attn.b_a += dk.sum(axis=0)
    dvalues += (dk @ params.attn.U_a).reshape(dvalues.shape)
    return (dvalues[:, :, :d_h], dinit[:, :d_h],
            dinit[:, d_h:] + dvalues[:, :, d_h:].sum(axis=1))


def _encoder_backward(dcell, dE_x, cell, tape, dstates, dfinal):
    """Adjoint of model._run_encoder into dcell and dE_x, given its tape;
    dstates is None when no gradient reaches the states. The steps run in
    reverse over the same live rows as the forward pass, in its packed
    order: a row leaves the prefix at its last token, so it joins at that
    step, where its dfinal enters. No state past it is read, so no mask is
    needed."""
    order, ids, counts, caches = tape
    dh = dfinal[order]  # a row holds its dfinal until its last token's step
    if dstates is not None:
        dstates = dstates[order]
    for t in reversed(range(len(counts))):
        n = counts[t]
        dx, dh[:n] = _gru_backward(dcell, cell, caches[t],
                                   dh[:n] if dstates is None else dh[:n] + dstates[:n, t])
        np.add.at(dE_x, ids[:n, t], dx)


def backward(params: ModelParams, batch):
    """Loss and its gradient for every tensor; returns (loss, grads dict).

    Gradient keys match ModelParams.named_tensors(). The loss comes from
    the same _forward as batch_loss's, so the two are bit-identical.

    The readout and output layer feed nothing back into the recurrence, so
    _forward runs them once over the packed target rows of all steps, and
    _output_backward forms their gradients, and the packed gradients they
    pass to s_t, y_emb and c, from one product each over those rows,
    before the reverse loop. That loop reads the tape's counts: step t
    runs the decoder GRU and the attention backward over the counts[t]
    live rows only, in the order _forward packed them, with the carried
    gradient of the counts[t + 1] rows of step t + 1 added to its first
    rows. Padding rows are never formed. The context memory is built
    once per batch; the loop and the start state add their gradients into
    views of the first rows of a memory of the same shapes, which
    _memory_backward, its adjoint, maps back to the encoders once.
    """
    loss, token_count, tape = _forward(params, batch)
    counts, inputs, memory, (enc_tape, encg_tape), s0, dec_steps, c, output = tape
    grads = _params_from_tensors(params.scheme, params.dims, {
        name: np.zeros_like(arr) for name, arr in params.named_tensors().items()})

    d_emb = params.dims.d_emb
    ds_out, dy_emb, dc_out = _output_backward(grads, params, output, 1.0 / token_count)
    dlc = np.empty((len(c), params.dims.d_L))

    dmemory = ContextMemory(np.zeros_like(memory.init))
    if memory.keys is not None:
        dmemory.values = np.zeros_like(memory.values)
        dmemory.keys = np.zeros_like(memory.keys)

    ds_carry = np.zeros((0, params.dims.d_h))
    end = len(c)
    for n, (cache, alpha) in zip(reversed(counts), reversed(dec_steps)):
        rows = slice(end - n, end)
        ds = ds_out[rows]
        ds[:len(ds_carry)] += ds_carry
        du, ds_carry = _gru_backward(grads.dec, params.dec, cache, ds)
        dy_emb[rows] += du[:, :d_emb]
        dlc[rows] = du[:, d_emb:]
        dc = dc_out[rows] + dlc[rows] @ params.L
        if memory.keys is None:
            dmemory.init[:n] += dc
        else:
            s_prev = cache[1]
            ds_carry += _attention_backward(grads, params, _head(memory, n),
                                            _head(dmemory, n), alpha, s_prev, dc)
        end -= n
    grads.L += dlc.T @ c
    np.add.at(grads.E_y, inputs, dy_emb)

    # start state s_0 = tanh(W_0 c_0); every row is live at step 0
    da0 = ds_carry * (1.0 - s0 ** 2)
    grads.W_0 += da0.T @ memory.init
    dmemory.init += da0 @ params.W_0

    dstates, dfinal, dglobal_final = _memory_backward(grads, params, memory, dmemory)
    _encoder_backward(grads.enc, grads.E_x, params.enc, enc_tape, dstates, dfinal)
    if params.scheme == "hyb":
        _encoder_backward(grads.enc_g, grads.E_x, params.enc_g, encg_tape, None,
                          dglobal_final)
    return loss, grads.named_tensors()


def grad_check(params: ModelParams, batch, eps: float = 1e-5, tol: float = 1e-4):
    """Compare analytic gradients against finite differences.

    Every entry of every tensor is checked. The relative error for entry i is
    |a_i - n_i| / max(|a_i|, |n_i|, 1e-8), with n_i the central difference
    at eps. Where that exceeds tol, n_i is measured again with the
    fourth-order five-point difference at h = 100 * eps, and the entry's
    error is the smaller of the two. On gradients near 1e-8 the central
    difference's roundoff (about 1e-11 at eps 1e-5) alone can exceed tol;
    the wider step divides that roundoff by about 70 while its truncation
    error stays O(h**4). Returns (ok, report) where report maps tensor
    names to their worst relative error. eps and tol must be finite and
    positive.
    """
    for name, value in (("eps", eps), ("tol", tol)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a finite number > 0, got {value}")
    _, grads = backward(params, batch)
    report: dict[str, float] = {}
    ok = True
    for name, arr in params.named_tensors().items():
        flat = arr.reshape(-1)
        g = grads[name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]

            def f(x):
                flat[i] = x
                return batch_loss(params, batch)[0]

            def rel(numeric):
                return abs(g[i] - numeric) / max(abs(g[i]), abs(numeric), 1e-8)

            err = rel((f(orig + eps) - f(orig - eps)) / (2.0 * eps))
            if err > tol:
                h = 100.0 * eps
                err = min(err, rel((-f(orig + 2 * h) + 8 * f(orig + h)
                                    - 8 * f(orig - h) + f(orig - 2 * h)) / (12.0 * h)))
            flat[i] = orig
            worst = max(worst, err)
        report[name] = worst
        ok = ok and worst <= tol
    return ok, report


def sgd_step(params: ModelParams, grads: dict, lr: float,
             clip_norm: float | None = None) -> float:
    """Plain SGD update in place; returns the global-norm scale applied."""
    if not (math.isfinite(lr) and lr >= 0.0):
        raise ValueError(f"learning rate must be finite and nonnegative, got {lr}")
    tensors = params.named_tensors()
    names = list(tensors)
    glist = [grads[n] for n in names]
    factor = 1.0
    if clip_norm is not None:
        glist, factor = clip_global_norm(glist, clip_norm)
    for name, g in zip(names, glist):
        tensors[name] -= lr * g
    return factor


def init_hybrid_from_pretrained(loc_params: ModelParams, glo_params: ModelParams,
                                rng: Rng, low: float = -0.1, high: float = 0.1):
    """Warm-start a hybrid model from separately trained loc and glo models.

    The attention model contributes the input/output embeddings, the local
    encoder, the decoder, the readout, and the attention scorer's W_a, v_a,
    b_a; the glo model contributes its encoder as the second (global-summary)
    encoder, which from then on reads the attention model's embeddings. A
    tensor whose shape differs from its source's is freshly initialized:
    L, W_0, W_c and attn.U_a, whose width doubles with the context.

    Returns (params, provenance) where provenance maps each tensor name to
    "loc", "glo", or "fresh".
    """
    if loc_params.scheme != "loc":
        raise ValueError(f"first source must use the loc scheme, got {loc_params.scheme!r}")
    if glo_params.scheme != "glo":
        raise ValueError(f"second source must use the glo scheme, got {glo_params.scheme!r}")
    ld, gd = loc_params.dims, glo_params.dims
    for field_name in ("d_h", "d_emb", "v_post", "v_resp"):
        if getattr(ld, field_name) != getattr(gd, field_name):
            raise ValueError(
                f"source models disagree on {field_name}: "
                f"{getattr(ld, field_name)} vs {getattr(gd, field_name)}")

    dims = Dims(d_h=ld.d_h, d_emb=ld.d_emb, d_a=ld.d_a, d_L=ld.d_L,
                d_r=ld.d_r, v_post=ld.v_post, v_resp=ld.v_resp)
    params = init_params("hyb", dims, rng, low, high)
    sources = {"loc": loc_params.named_tensors(), "glo": glo_params.named_tensors()}
    provenance: dict[str, str] = {}
    for name, arr in params.named_tensors().items():
        cell, _, field = name.rpartition(".")
        src, src_name = ("glo", f"enc.{field}") if cell == "enc_g" else ("loc", name)
        source = sources[src][src_name]
        if source.shape == arr.shape:
            np.copyto(arr, source)
        else:
            src = "fresh"
        provenance[name] = src
    return params, provenance


def _perplexity(mean_nll: float) -> float:
    """exp(mean_nll), or inf where that overflows a float."""
    try:
        return math.exp(mean_nll)
    except OverflowError:
        return float("inf")


def train(params: ModelParams, pairs, vocabs, config: TrainConfig, rng: Rng,
          log_stream=None):
    """SGD over shuffled minibatches; returns [(epoch, mean_nll, ppl), ...].

    The reported numbers are the running training loss of each epoch
    (per-token NLL, weighted by batch token counts) and its exponential.
    Each history row is also written to log_stream as a tab-separated line
    when one is given.
    """
    if not pairs:
        raise ValueError("cannot train on an empty pair list")
    history = []
    for epoch in range(1, config.epochs + 1):
        batches = make_batches(pairs, vocabs, config.batch_size, rng,
                               config.max_response_len)
        total_nll = 0.0
        total_tokens = 0.0
        for batch_index, batch in enumerate(batches):
            loss, grads = backward(params, batch)
            if not math.isfinite(loss):
                norms = ", ".join(f"{name}={float(np.linalg.norm(arr)):.3e}"
                                  for name, arr in params.named_tensors().items())
                raise RuntimeError(
                    f"non-finite loss {loss} at epoch {epoch}, batch {batch_index}; "
                    f"tensor norms: {norms}")
            sgd_step(params, grads, config.lr, config.clip_norm)
            n_tok = float(batch.resp_mask[:, 1:].sum())
            total_nll += loss * n_tok
            total_tokens += n_tok
        mean_nll = total_nll / total_tokens
        ppl = _perplexity(mean_nll)
        history.append((epoch, mean_nll, ppl))
        if log_stream is not None:
            log_stream.write(f"{epoch}\t{mean_nll:.6f}\t{ppl:.6f}\n")
            log_stream.flush()
    return history


def corpus_perplexity(params: ModelParams, pairs, vocabs, batch_size: int = 32,
                      max_response_len: int | None = None):
    """Mean per-token NLL and perplexity of a pair list, without updates."""
    if not pairs:
        raise ValueError("cannot evaluate an empty pair list")
    batches = make_batches(pairs, vocabs, batch_size, Rng(0), max_response_len)
    total_nll = 0.0
    total_tokens = 0.0
    for batch in batches:
        loss, n_tok = batch_loss(params, batch)
        total_nll += loss * n_tok
        total_tokens += n_tok
    mean_nll = total_nll / total_tokens
    return mean_nll, _perplexity(mean_nll)
