"""Maximum-likelihood training with hand-derived gradients.

The loss is the mean negative log-likelihood per framed response token
(content tokens plus the closing end marker); every post and every response
in a batch must have at least one token. Backpropagation through the
decoder, the attention, and the masked encoder recurrences is written out
explicitly; there is no autodiff anywhere. `grad_check` compares every
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
    _decoder_step,
    _encode,
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


def _forward(params: ModelParams, batch, keep: bool):
    """Shared forward pass. Returns (loss, token_count, aux).

    aux carries the intermediates the backward pass needs. Only with keep
    does it hold every decoder step's cache and next-token distribution;
    without, each step's cache is dropped as the loop moves on, so
    evaluation costs no extra memory. Both ways the loss is computed by the
    same operations, so it is bit-identical.
    """
    enc_out, enc_caches = _encode(params, batch.post_ids, batch.post_mask)
    if (batch.resp_mask[:, 1:].sum(axis=1) < 2).any():  # the end marker alone
        raise ValueError("every response in a batch must have at least one token")
    memory = context_memory(params, enc_out)
    s0 = _start_state(params, memory)

    b, t_resp = batch.resp_ids.shape
    steps = t_resp - 1
    rows = np.arange(b)
    s = s0
    loss_sum = 0.0
    dec_caches = []
    # every step's next-token distribution, which backward turns into dlogits in place
    probs = np.empty((steps, b, params.dims.v_resp)) if keep else None
    for t in range(steps):
        s, logp, cache = _decoder_step(params, memory, s, batch.resp_ids[:, t])
        target = batch.resp_ids[:, t + 1]
        m = batch.resp_mask[:, t + 1]
        loss_sum -= float((m * logp[rows, target]).sum())
        if keep:
            np.exp(logp, out=probs[t])
            dec_caches.append(cache)

    token_count = float(batch.resp_mask[:, 1:].sum())
    aux = {"memory": memory, "enc_caches": enc_caches, "s0": s0,
           "dec_caches": dec_caches, "probs": probs}
    return loss_sum / token_count, token_count, aux


def batch_loss(params: ModelParams, batch):
    """Mean per-token negative log-likelihood of a batch; returns (loss, n_tokens)."""
    loss, token_count, _ = _forward(params, batch, keep=False)
    return loss, token_count


def _gru_backward(grads, prefix, cell, x, h_prev, z, r, hbar, dh):
    """Backprop one cell step. Accumulates into grads; returns (dx, dh_prev)."""
    dz = dh * (hbar - h_prev)
    dhbar = dh * z
    dh_prev = dh * (1.0 - z)

    dpre_h = dhbar * (1.0 - hbar * hbar)
    grads[prefix + ".W_h"] += dpre_h.T @ x
    grads[prefix + ".U_h"] += dpre_h.T @ (r * h_prev)
    grads[prefix + ".b_h"] += dpre_h.sum(axis=0)
    drh = dpre_h @ cell.U_h
    dr = drh * h_prev
    dh_prev += drh * r

    dpre_z = dz * z * (1.0 - z)
    grads[prefix + ".W_z"] += dpre_z.T @ x
    grads[prefix + ".U_z"] += dpre_z.T @ h_prev
    grads[prefix + ".b_z"] += dpre_z.sum(axis=0)
    dh_prev += dpre_z @ cell.U_z

    dpre_r = dr * r * (1.0 - r)
    grads[prefix + ".W_r"] += dpre_r.T @ x
    grads[prefix + ".U_r"] += dpre_r.T @ h_prev
    grads[prefix + ".b_r"] += dpre_r.sum(axis=0)
    dh_prev += dpre_r @ cell.U_r

    dx = dpre_z @ cell.W_z + dpre_r @ cell.W_r + dpre_h @ cell.W_h
    return dx, dh_prev


def _attention_backward(grads, params, memory, dmemory, cache, dc):
    """Backprop one step of the additive scorer and the weighted sum.

    The gradients w.r.t. the memory's values and keys are accumulated into
    dmemory; _memory_backward maps them to U_a, b_a and the encoder states
    once per batch. Padded positions carry alpha == 0 exactly, so every term
    below vanishes there without explicit masking. Returns the gradient
    w.r.t. s_prev.
    """
    a = params.attn
    alpha, s_prev = cache["alpha"], cache["s_prev"]
    ta = _score_tanh(params, memory, s_prev)
    d_a = ta.shape[2]

    # c = sum_j alpha_j h_j
    dalpha = (memory.values @ dc[:, :, None])[:, :, 0]
    dmemory.values += alpha[:, :, None] * dc[:, None, :]

    # softmax jacobian, then the scorer
    de = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    grads["attn.v_a"] += de.reshape(-1) @ ta.reshape(-1, d_a)
    dpre = (de[:, :, None] * a.v_a) * (1.0 - ta * ta)
    dmemory.keys += dpre
    dproj = dpre.sum(axis=1)
    grads["attn.W_a"] += dproj.T @ s_prev
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
    grads["attn.U_a"] += dk.T @ memory.values.reshape(-1, dvalues.shape[2])
    grads["attn.b_a"] += dk.sum(axis=0)
    dvalues += (dk @ params.attn.U_a).reshape(dvalues.shape)
    return (dvalues[:, :, :d_h], dinit[:, :d_h],
            dinit[:, d_h:] + dvalues[:, :, d_h:].sum(axis=1))


def _encoder_backward(grads, prefix, cell, ids, mask, caches, dstates, dfinal):
    """Backprop a masked recurrence. Padded steps pass the carry through.
    dstates is None when no gradient reaches the per-step states."""
    if dstates is None:
        dstates = np.zeros(ids.shape + dfinal.shape[1:])
    dcarry = dfinal.copy()
    for t in reversed(range(ids.shape[1])):
        x, h_prev, z, r, hbar = caches[t]
        m = mask[:, t][:, None]
        dh_hat = (dcarry + dstates[:, t, :]) * m
        dx, dh_prev = _gru_backward(grads, prefix, cell, x, h_prev, z, r, hbar, dh_hat)
        dcarry = dcarry * (1.0 - m) + dh_prev
        np.add.at(grads["E_x"], ids[:, t], dx)


def backward(params: ModelParams, batch):
    """Loss and its gradient for every tensor; returns (loss, grads dict).

    Gradient keys match ModelParams.named_tensors(). The loss here is
    bit-identical to batch_loss on the same inputs.

    The readout and output layer feed nothing back into the recurrence, so
    their gradients, and the gradients they pass to s_t, y_emb and c, come
    from one product each over all steps at once, before the reverse loop
    through the decoder GRU and the attention. The context memory is built
    once per batch; the loop and the start state add their gradients into a
    memory of the same shapes, which _memory_backward, its adjoint, maps
    back to the encoders once.
    """
    loss, token_count, aux = _forward(params, batch, keep=True)
    tensors = params.named_tensors()
    grads = {name: np.zeros_like(arr) for name, arr in tensors.items()}

    memory = aux["memory"]
    caches = aux["dec_caches"]
    d_h = params.dims.d_h
    d_emb = params.dims.d_emb
    b = batch.post_ids.shape[0]
    steps = len(caches)
    lam = 1.0 / token_count

    def stacked(key):
        """One cached tensor over all steps, as (steps * B, width) rows."""
        return np.stack([cache[key] for cache in caches]).reshape(steps * b, -1)

    rout, s_t, y_emb, c = (stacked(k) for k in ("rout", "s_t", "y_emb", "c"))

    # softmax cross-entropy: dlogits = lam * mask * (probs - onehot(target))
    dlogits = aux["probs"]
    targets = batch.resp_ids[:, 1:].T
    dlogits[np.arange(steps)[:, None], np.arange(b), targets] -= 1.0
    dlogits *= (lam * batch.resp_mask[:, 1:].T)[:, :, None]
    dlogits = dlogits.reshape(steps * b, -1)

    grads["W_o"] += dlogits.T @ rout
    grads["b_o"] += dlogits.sum(axis=0)
    da = (dlogits @ params.W_o) * (1.0 - rout ** 2)
    grads["W_s"] += da.T @ s_t
    grads["W_y"] += da.T @ y_emb
    grads["W_c"] += da.T @ c
    grads["b_r"] += da.sum(axis=0)
    ds_out = (da @ params.W_s).reshape(steps, b, d_h)
    dy_emb = (da @ params.W_y).reshape(steps, b, d_emb)
    dc_out = (da @ params.W_c).reshape(steps, b, -1)
    dlc = np.empty((steps, b, params.dims.d_L))

    dmemory = ContextMemory(np.zeros_like(memory.init))
    if memory.keys is not None:
        dmemory.values = np.zeros_like(memory.values)
        dmemory.keys = np.zeros_like(memory.keys)

    ds_carry = np.zeros((b, d_h))
    for t in reversed(range(steps)):
        cache = caches[t]
        du, ds_prev = _gru_backward(grads, "dec", params.dec, cache["u"],
                                    cache["s_prev"], cache["z"], cache["r"],
                                    cache["hbar"], ds_carry + ds_out[t])
        dy_emb[t] += du[:, :d_emb]
        dlc[t] = du[:, d_emb:]
        dc = dc_out[t] + dlc[t] @ params.L
        if memory.keys is None:
            dmemory.init += dc
        else:
            ds_prev += _attention_backward(grads, params, memory, dmemory, cache, dc)
        ds_carry = ds_prev
    grads["L"] += dlc.reshape(steps * b, -1).T @ c
    np.add.at(grads["E_y"], batch.resp_ids[:, :-1].T.reshape(-1),
              dy_emb.reshape(steps * b, d_emb))

    # start state s_0 = tanh(W_0 c_0)
    da0 = ds_carry * (1.0 - aux["s0"] ** 2)
    grads["W_0"] += da0.T @ memory.init
    dmemory.init += da0 @ params.W_0

    dstates, dfinal, dglobal_final = _memory_backward(grads, params, memory, dmemory)
    enc_caches, encg_caches = aux["enc_caches"]
    _encoder_backward(grads, "enc", params.enc, batch.post_ids, batch.post_mask,
                      enc_caches, dstates, dfinal)
    if params.scheme == "hyb":
        _encoder_backward(grads, "enc_g", params.enc_g, batch.post_ids,
                          batch.post_mask, encg_caches, None, dglobal_final)
    return loss, grads


def grad_check(params: ModelParams, batch, eps: float = 1e-5, tol: float = 1e-4,
               max_entries: int | None = None, rng: Rng | None = None):
    """Compare analytic gradients against central finite differences.

    Every entry of every tensor is checked unless max_entries caps the count
    per tensor (then rng picks the sample). The relative error for entry i is
    |a_i - n_i| / max(|a_i|, |n_i|, 1e-8). Returns (ok, report) where report
    maps tensor names to their worst relative error.
    """
    _, grads = backward(params, batch)
    report: dict[str, float] = {}
    ok = True
    for name, arr in params.named_tensors().items():
        flat = arr.reshape(-1)
        g = grads[name].reshape(-1)
        if max_entries is not None and flat.size > max_entries:
            if rng is None:
                raise ValueError("sampling entries requires an rng")
            picked = sorted({rng.randrange(flat.size) for _ in range(max_entries)})
        else:
            picked = range(flat.size)
        worst = 0.0
        for i in picked:
            orig = flat[i]
            flat[i] = orig + eps
            up, _ = batch_loss(params, batch)
            flat[i] = orig - eps
            down, _ = batch_loss(params, batch)
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            rel = abs(g[i] - numeric) / max(abs(g[i]), abs(numeric), 1e-8)
            worst = max(worst, rel)
        report[name] = worst
        ok = ok and worst <= tol
    return ok, report


def sgd_step(params: ModelParams, grads: dict, lr: float,
             clip_norm: float | None = None) -> float:
    """Plain SGD update in place; returns the global-norm scale applied."""
    if lr < 0.0:
        raise ValueError(f"learning rate must be nonnegative, got {lr}")
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
    encoder, which from then on reads the attention model's embeddings. The
    four tensors whose width doubles with the concatenated context (L, W_0,
    W_c, attn.U_a) are freshly initialized.

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
    tensors = params.named_tensors()
    loc_t = loc_params.named_tensors()
    glo_t = glo_params.named_tensors()

    fresh = {"L", "W_0", "W_c", "attn.U_a"}
    provenance: dict[str, str] = {}
    for name in tensors:
        if name in fresh:
            provenance[name] = "fresh"
        elif name.startswith("enc_g."):
            np.copyto(tensors[name], glo_t["enc." + name[len("enc_g."):]])
            provenance[name] = "glo"
        else:
            np.copyto(tensors[name], loc_t[name])
            provenance[name] = "loc"
    return params, provenance


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
        try:
            ppl = math.exp(mean_nll)
        except OverflowError:
            ppl = float("inf")
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
    try:
        ppl = math.exp(mean_nll)
    except OverflowError:
        ppl = float("inf")
    return mean_nll, ppl
