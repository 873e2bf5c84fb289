"""Maximum-likelihood training with hand-derived gradients.

The loss is the mean negative log-likelihood per framed response token
(content tokens plus the closing end marker); every post and every response
in a batch must have at least one token. Backpropagation through the
decoder, the attention, and the encoder recurrences is written out
explicitly; there is no autodiff anywhere. One forward pass records a tape
(every GRU step's inputs and gates, the attention weights and the scorer's
tanh, the output layer's exponentials) that `batch_loss` drops and
`backward` reads.
`grad_check` compares every analytic gradient against central finite
differences and is the standing proof that the derivation matches the
forward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import make_batches
from .model import (
    _SOFTMAX_ROWS,
    ContextMemory,
    ModelParams,
    _check_ids,
    _context,
    _decoder_xw,
    _encode,
    _gru_step,
    _gru_tape,
    _mask_lengths,
    _memory_rows,
    _new_params,
    _packing,
    _readout,
    _start_state,
    context_memory,
    init_params,
)
from .numerics import Rng, _c_order, _clip_factor, _row_slices

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


def _forward(params: ModelParams, batch):
    """Shared forward pass. Returns (loss, token_count, tape).

    The recurrences are packed. The rows are taken once in _packing's order
    of their target counts (response length less the begin marker), so the
    rows with a target at a step are a prefix of that order, and the loop
    runs the context and the decoder GRU of each of _packing's steps over
    that step's n live rows only, against views of the context memory's
    first n rows. It ends at the last step with a live row. The encoders
    get the posts in the same order and pack them by post length
    themselves.

    Every per-target array is packed step-major, and each step reads and
    writes its own slice of them. Under teacher forcing the previous
    tokens are known before the loop, so their part of the decoder GRU's
    input products comes from one product over all rows (_decoder_xw).
    Under glo each row's context is fixed, so L c and its part of the
    input products come from the context memory, which forms them once
    per batch row, and are gathered to the packed rows before the loop;
    under loc and hyb they depend on the step's attention, so each step
    forms its own. Likewise the readout and
    the output softmax feed nothing back into the recurrence, so
    _output_loss runs them once over all rows after the loop, and the loss
    is the sum of the packed targets' log-probabilities. tape is what the
    backward pass reads: (steps, input ids, memory, encoder tapes, s_0,
    decoder _gru_tape, each step's attention weights alpha, the scorer's
    tanh, c, output cache), where the input ids, the tanh, c and the
    decoder tape are packed (the tape's x is the GRU input u = [y_emb,
    L c]); each encoder tape holds its own order and steps. Under glo
    there are no weights and no tanh (None).
    """
    resp_ids = _check_ids(batch.resp_ids, params.dims.v_resp, "response")
    # a response row holds the begin marker, its tokens and the end marker
    lengths = _mask_lengths(batch.resp_mask, "resp_mask", "response")
    if (lengths < 3).any():
        raise ValueError("every response in a batch must have at least one token")
    b = len(resp_ids)
    if len(batch.post_ids) != b:
        raise ValueError(f"a batch needs one post per response, got {len(batch.post_ids)} "
                         f"posts and {b} responses")
    order, steps, live = _packing(lengths - 1)
    enc_out, enc_tapes = _encode(params, batch.post_ids, batch.post_mask, order)
    memory = context_memory(params, enc_out)
    s0 = _start_state(params, memory)

    d_emb = params.dims.d_emb
    by_step = resp_ids[order, :len(steps) + 1].T
    inputs, targets = by_step[:-1][live], by_step[1:][live]
    dec_tape = _gru_tape(np.empty((len(targets), d_emb + params.dims.d_L)), params.dims.d_h)
    u, s_prev, zr, hbar = dec_tape
    y_emb, lc = u[:, :d_emb], u[:, d_emb:]
    y_emb[...] = params.E_y[inputs]
    xw = _decoder_xw(params, y_emb)
    W_lc = params.dec.W[:, d_emb:]  # the columns of the decoder input's L c
    s_t = np.empty(s_prev.shape)
    alphas, ta = [], None
    if memory.keys is None:
        row = np.nonzero(live)[1]  # each packed row's row of the memory
        c = memory.init[row]
        lc[...] = memory.lc[row]
        xw += memory.xw_lc[row]
    else:
        c = np.empty((len(targets), memory.init.shape[1]))
        ta = np.empty((len(targets),) + memory.keys.shape[1:])
    s = s0
    for n, rows in steps:
        s_prev[rows] = s[:n]
        if ta is not None:
            c[rows], alpha = _context(params, _memory_rows(memory, slice(n)), s[:n], ta[rows])
            alphas.append(alpha)
            xw[rows] += np.matmul(c[rows], params.L.T, out=lc[rows]) @ W_lc.T
        s = s_t[rows] = _gru_step(params.dec, xw[rows], s_prev[rows], zr[rows], hbar[rows])
    target_logp, output = _output_loss(params, s_t, y_emb, c, targets)

    token_count = float(len(targets))
    tape = (steps, inputs, memory, enc_tapes, s0, dec_tape, alphas, ta, c, output)
    return -float(target_logp.sum()) / token_count, token_count, tape


def _output_loss(params: ModelParams, s_t, y_emb, c, targets):
    """The teacher-forced output layer over the packed target rows.

    s_t, y_emb and c are (n_real, width), one row per real target; padding
    rows are never formed. The readout and the logits z = rout @ W_o.T +
    b_o take one product each over all rows. A block of rows at a time,
    each row is shifted by its maximum m in place, its target's shifted
    logit z_t - m is read, and the shifted logits are exponentiated in
    place and summed into s: the one exponential per logit that both the
    loss and its gradient use. Each target's log-probability is
    (z_t - m) - log s, the arithmetic of numerics.log_softmax and of the
    decoders' log-probabilities (_output_layer's shifted logits less their
    normalizers), so the loss has their bits. Returns (target_logp,
    cache): each row's target log-probability, and the targets, the
    inputs, the readout, the (n_real, v_resp) exponentials and their row
    sums s.
    """
    rout = _readout(params, s_t, y_emb, c @ params.W_c.T)
    e = rout @ params.W_o.T
    target_logp, s = np.empty(len(targets)), np.empty(len(targets))
    for start in range(0, len(e), _SOFTMAX_ROWS):
        rows = slice(start, start + _SOFTMAX_ROWS)
        block = e[rows]
        block += params.b_o
        block -= np.max(block, axis=1, keepdims=True)
        target_logp[rows] = block[np.arange(len(block)), targets[rows]]
        np.exp(block, out=block)
        np.sum(block, axis=1, out=s[rows])
    target_logp -= np.log(s)
    return target_logp, (targets, (s_t, y_emb, c), rout, e, s)


def _output_backward(grads, params, cache, lam: float):
    """Adjoint of _output_loss, given its cache and the loss weight lam of
    every target. Writes the W_o, b_o, W_s, W_y, W_c and b_r gradients into
    the gradient ModelParams grads, from one product each over the packed
    rows, and returns the packed gradients w.r.t. s_t, y_emb and c. The
    cached exponentials become dlogits in place, scaled by lam / s: no
    exponential is taken again.
    """
    targets, (s_t, y_emb, c), rout, dlogits, s = cache
    # softmax cross-entropy: dlogits = lam * (e / s - onehot(target))
    dlogits *= (lam / s)[:, None]
    dlogits[np.arange(len(targets)), targets] -= lam

    np.matmul(rout.T, dlogits, out=grads.W_o.T)  # W_o's storage, C-contiguous
    np.sum(dlogits, axis=0, out=grads.b_o)
    da = (dlogits @ params.W_o) * (1.0 - rout ** 2)
    for x, dw in ((s_t, grads.W_s), (y_emb, grads.W_y), (c, grads.W_c)):
        np.matmul(da.T, x, out=dw)
    np.sum(da, axis=0, out=grads.b_r)
    return [da @ w for w in (params.W_s, params.W_y, params.W_c)]


def batch_loss(params: ModelParams, batch):
    """Mean per-token negative log-likelihood of a batch; returns (loss, n_tokens)."""
    loss, token_count, _ = _forward(params, batch)
    return loss, token_count


def _gru_adjoint(cell, tape, rows, dh, dpre):
    """Adjoint of the _gru_step that wrote rows `rows` of the _gru_tape
    tape, given dh, the gradient w.r.t. its new state: writes the gradient
    w.r.t. its pre-activations, dpre_z | dpre_r | dpre_h, into dpre
    (n, 3 d_h) and returns the gradient w.r.t. its h_prev.

    Only the state's path runs step by step. The weight and bias gradients
    (_gru_weight_grads) and the input's (dpre @ W) are products over the
    dpre of every step, formed once after the reverse loop.
    """
    _, h_prev, zr, hbar = (a[rows] for a in tape)
    d_h = h_prev.shape[1]
    z, r = zr[:, :d_h], zr[:, d_h:]
    dz = dh * (hbar - h_prev)
    dh_prev = dh * (1.0 - z)

    dpre_h = np.multiply(dh * z, 1.0 - hbar * hbar, out=dpre[:, 2 * d_h:])
    drh = dpre_h @ cell.U_h
    dh_prev += drh * r
    np.multiply(dz * z, 1.0 - z, out=dpre[:, :d_h])
    np.multiply(drh * h_prev * r, 1.0 - r, out=dpre[:, d_h:2 * d_h])
    dh_prev += dpre[:, :2 * d_h] @ cell.U_zr
    return dh_prev


def _gru_weight_grads(dcell, tape, dpre):
    """Write the cell's W, U_zr, U_h and b gradients into dcell, one
    product each over the rows of the _gru_tape tape and their dpre, as
    _gru_adjoint wrote it."""
    x, h_prev, zr, _ = tape
    d_h = h_prev.shape[1]
    np.matmul(dpre.T, x, out=dcell.W)
    np.matmul(dpre[:, :2 * d_h].T, h_prev, out=dcell.U_zr)
    np.matmul(dpre[:, 2 * d_h:].T, zr[:, d_h:] * h_prev, out=dcell.U_h)
    np.sum(dpre, axis=0, out=dcell.b)


def _attention_backward(grads, params, memory, dmemory, alpha, ta, s_prev, dc):
    """Backprop one step of the additive scorer and the weighted sum, given
    the step's attention weights alpha, the scorer's tanh ta as the forward
    pass taped it, the decoder state s_prev and dc, the gradient w.r.t. the
    attended columns of the context, sum_j alpha_j h_j.

    The gradients w.r.t. the memory's values and keys are accumulated into
    dmemory; _memory_backward maps them to U_a, b_a and the encoder states
    once per batch. Padded positions carry alpha == 0 exactly, so every term
    below vanishes there without explicit masking. Returns the gradient
    w.r.t. s_prev.
    """
    a = params.attn
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
    fields. Writes the U_a and b_a gradients and returns the gradients
    (dstates, dfinal, dglobal_final) w.r.t. the encoder states, the final
    state and the second encoder's final state. dstates is None under glo,
    which reads no state but the final one; dglobal_final is (B, 0) unless
    the scheme is hyb. Under hyb, the keys' per-row term g @ U_a[:, d_h:].T
    gets the keys' gradient summed over positions, one row per post."""
    d_h = params.dims.d_h
    dinit = dmemory.init
    if memory.keys is None:
        return None, dinit, dinit[:, d_h:]
    dvalues, U_a, dU_a = dmemory.values, params.attn.U_a, grads.attn.U_a
    dk = dmemory.keys.reshape(-1, dmemory.keys.shape[2])
    np.matmul(dk.T, memory.values.reshape(-1, d_h), out=dU_a[:, :d_h])
    np.sum(dk, axis=0, out=grads.attn.b_a)
    drow = dmemory.keys.sum(axis=1)  # the per-row term's gradient
    np.matmul(drow.T, memory.init[:, d_h:], out=dU_a[:, d_h:])
    dinit[:, d_h:] += drow @ U_a[:, d_h:]
    dvalues += (dk @ U_a[:, :d_h]).reshape(dvalues.shape)
    return dvalues, dinit[:, :d_h], dinit[:, d_h:]


def _encoder_backward(dcell, cell, tape, dstates, dfinal):
    """Adjoint of model._run_encoder: writes dcell, given its tape, and
    returns (tokens, dx), the packed token ids and the gradient w.r.t.
    each one's embedding; dstates is None when no gradient reaches the
    states. The tape's steps run in reverse, each over its slice of the
    packed rows, as in the forward pass: a row leaves the prefix at its last
    token, so it joins at that step, where its dfinal enters. No state
    past it is read, so no mask is needed. The weight gradients and the
    tokens' input gradient are one product each after the loop."""
    order, steps, tokens, gru_tape = tape
    dh = dfinal[order]  # a row holds its dfinal until its last token's step
    if dstates is not None:
        dstates = dstates[order]
    dpre = np.empty((len(tokens), 3 * cell.U_h.shape[0]))
    for t, (n, rows) in reversed(list(enumerate(steps))):
        dh_t = dh[:n] if dstates is None else dh[:n] + dstates[:n, t]
        dh[:n] = _gru_adjoint(cell, gru_tape, rows, dh_t, dpre[rows])
    _gru_weight_grads(dcell, gru_tape, dpre)
    return tokens, dpre @ cell.W


def _row_sum(ids, dx):
    """The gradient w.r.t. an embedding table whose rows ids were read, given
    dx, the gradient w.r.t. each read: (rows, values), the distinct ids in
    ascending order and, for each, the sum of its dx rows. np.add.at adds
    them in dx's order, as it would into the full table, so the values
    have the bits of that table's rows."""
    rows, at = np.unique(ids, return_inverse=True)
    values = np.zeros((len(rows), dx.shape[1]))
    np.add.at(values, at, dx)
    return rows, values


def _backward(params: ModelParams, batch):
    """backward, with the E_x and E_y gradients as _row_sum's (rows,
    values) pairs: only the rows a batch reads. sgd_step takes them so."""
    loss, token_count, tape = _forward(params, batch)
    steps, inputs, memory, (enc_tape, encg_tape), s0, dec_tape, alphas, ta, c, output = tape
    grads = _new_params(params.scheme, params.dims, np.zeros)

    d_h, d_emb = params.dims.d_h, params.dims.d_emb
    ds_out, dy_emb, dc_out = _output_backward(grads, params, output, 1.0 / token_count)
    W_lc = params.dec.W[:, d_emb:]  # the columns of the decoder input's L c
    # the context's first d_v columns are attended; the rest are read
    # straight from the memory's init (all of them under glo, g under hyb)
    d_v = 0 if memory.values is None else memory.values.shape[2]
    dpre = np.empty((len(c), 3 * d_h))
    dlc = np.empty((len(c), params.dims.d_L))

    dmemory = ContextMemory(np.zeros(memory.init.shape))
    if memory.keys is not None:
        dmemory.values = np.zeros(memory.values.shape)
        dmemory.keys = np.zeros(memory.keys.shape)

    ds_carry = np.zeros((0, d_h))
    for t, (n, rows) in reversed(list(enumerate(steps))):
        ds = ds_out[rows]
        ds[:len(ds_carry)] += ds_carry
        ds_carry = _gru_adjoint(params.dec, dec_tape, rows, ds, dpre[rows])
        if memory.keys is not None:
            np.matmul(dpre[rows], W_lc, out=dlc[rows])
            dc = dc_out[rows, :d_v] + dlc[rows] @ params.L[:, :d_v]
            ds_carry += _attention_backward(grads, params, _memory_rows(memory, slice(n)),
                                            _memory_rows(dmemory, slice(n)),
                                            alphas[t], ta[rows], dec_tape[1][rows], dc)
    # nothing of the columns read from init reaches the state path, so
    # their gradient takes one product over all rows after the loop
    if memory.keys is None:
        np.matmul(dpre, W_lc, out=dlc)
    dc_init = dc_out[:, d_v:] + dlc @ params.L[:, d_v:]
    for n, rows in reversed(steps):  # reverse step order: a forward one moves last bits
        dmemory.init[:n, d_v:] += dc_init[rows]
    _gru_weight_grads(grads.dec, dec_tape, dpre)
    dy_emb += dpre @ params.dec.W[:, :d_emb]
    np.matmul(dlc.T, c, out=grads.L)
    grads.E_y = _row_sum(inputs, dy_emb)

    # start state s_0 = tanh(W_0 c_0); every row is live at step 0
    da0 = ds_carry * (1.0 - s0 ** 2)
    np.matmul(da0.T, memory.init, out=grads.W_0)
    dmemory.init += da0 @ params.W_0

    dstates, dfinal, dglobal_final = _memory_backward(grads, params, memory, dmemory)
    tokens, dx = _encoder_backward(grads.enc, params.enc, enc_tape, dstates, dfinal)
    if params.scheme == "hyb":
        tokens_g, dx_g = _encoder_backward(grads.enc_g, params.enc_g, encg_tape, None,
                                           dglobal_final)
        tokens, dx = np.concatenate([tokens, tokens_g]), np.concatenate([dx, dx_g])
    grads.E_x = _row_sum(tokens, dx)
    return loss, grads.named_tensors()


def backward(params: ModelParams, batch):
    """Loss and its gradient for every tensor; returns (loss, grads dict).

    Gradient keys match ModelParams.named_tensors(), each a dense array of
    its tensor's shape. The loss comes from the same _forward as
    batch_loss's, so the two are bit-identical.

    The readout and output layer feed nothing back into the recurrence, so
    _forward runs them once over the packed target rows of all steps, and
    _output_backward forms their gradients, and the packed gradients they
    pass to s_t, y_emb and c, from one product each over those rows, before
    the reverse loop. That loop walks the tape's steps in reverse: each runs
    the decoder GRU's state path (_gru_adjoint) and, under loc and hyb, the
    L c slice of its input gradient and the attention backward (reading the
    taped tanh) over its n live rows only, its slice of the packed arrays,
    with the carried gradient of the next step's rows added to its first
    rows. Padding rows are never formed. Each step writes its decoder
    pre-activation gradients into one packed array, so the decoder's weight
    gradients, the y_emb slice of its input gradient and the L gradient are
    one product each after the loop; so is, under glo, the L c slice, and
    for every scheme the gradient w.r.t. the context columns read straight
    from the memory's init (glo's whole context, hyb's g), which no step's
    state path reads. The context memory is built once per batch; the loop
    and the start state add their gradients into views of the first rows of
    a memory of the same shapes, which _memory_backward, its adjoint, maps
    back to the encoders once. The gradient arrays start as np.zeros, whose
    pages are zeroed only as they are first written, and each cell's stacked
    arrays are among them, so the products _gru_weight_grads writes land in
    place.

    The embeddings' gradients are formed on the rows the batch reads only,
    as (rows, values) pairs (_row_sum), which train hands to sgd_step as
    they are; this function writes each pair into a zero table of its
    tensor's shape, with the bits of np.add.at into that table.
    """
    loss, grads = _backward(params, batch)
    tensors = params.named_tensors()
    for name in ("E_x", "E_y"):
        rows, values = grads[name]
        grads[name] = np.zeros(tensors[name].shape)
        grads[name][rows] = values
    return loss, grads


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
        flat = arr.flat  # writing flat[i] writes arr, whatever its layout
        g = grads[name].flat
        worst = 0.0
        for i in range(arr.size):
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


# Entries of sgd_step's update buffer
_UPDATE_BLOCK = 1 << 15


def sgd_step(params: ModelParams, grads: dict, lr: float,
             clip_norm: float | None = None) -> float:
    """Plain SGD update in place; returns the global-norm scale applied.

    Every tensor t becomes t - lr * (g * factor). factor is clip_norm over
    the global L2 norm of grads where that norm exceeds clip_norm, and 1.0
    otherwise or without clipping (g * 1.0 is g). A gradient is a dense
    array of its tensor's shape, or a (rows, values) pair, as _backward
    gives the embeddings': the gradient is values on the distinct rows
    `rows` and 0 elsewhere, and the norm and the update read and write those
    rows only. Each row gets the bits of the dense update at the returned
    factor; the norm's sum of squares runs over those rows, so the factor
    can differ from a dense table's in its last bit. That sum is taken with
    or without clipping. A ValueError names the tensor, before any tensor is
    touched, when its gradient holds a NaN or an infinity, when a dense
    gradient is not of the tensor's shape, or when a pair's rows are not
    distinct integers in [0, len(t)) or its values are not of shape
    (len(rows),) + t.shape[1:]. The update runs block by block through one
    small reused buffer, a dense gradient's in its tensor's memory order
    (_c_order: W_o's is its transpose), so it allocates no tensor-sized
    temporary, and grads are left as they are.
    """
    if not (math.isfinite(lr) and lr >= 0.0):
        raise ValueError(f"learning rate must be finite and nonnegative, got {lr}")
    tensors = params.named_tensors()
    pairs = [grads[n] if isinstance(grads[n], tuple) else (None, grads[n]) for n in tensors]
    for (name, t), (rows, g) in zip(tensors.items(), pairs):
        shape = t.shape
        if rows is not None:
            rows = np.asarray(rows)
            if rows.ndim != 1 or rows.dtype.kind not in "iu" or \
                    (rows.size and (rows.min() < 0 or rows.max() >= len(t))):
                raise ValueError(f"gradient {name!r} rows must be integers in [0, {len(t)})")
            if len(np.unique(rows)) != len(rows):
                raise ValueError(f"gradient {name!r} lists a row twice")
            shape = (len(rows),) + shape[1:]
        if np.shape(g) != shape:
            raise ValueError(f"gradient {name!r} has shape {np.shape(g)}, not {shape}")
    factor = _clip_factor([g for _, g in pairs], clip_norm, list(tensors))
    buf = np.empty(_UPDATE_BLOCK)
    for t, (rows, g) in zip(tensors.values(), pairs):
        if rows is None and _c_order(t) is not t:  # walk the tensor's memory, W_o's transpose
            t, g = t.T, g.T
        for block_rows in _row_slices(g, _UPDATE_BLOCK):
            src = g[block_rows]
            block = buf[:src.size].reshape(src.shape)
            np.multiply(src, factor, out=block)
            block *= lr
            t[block_rows if rows is None else rows[block_rows]] -= block
    return factor


def init_hybrid_from_pretrained(loc_params: ModelParams, glo_params: ModelParams, rng: Rng):
    """Warm-start a hybrid model from separately trained loc and glo models.

    The attention model contributes the input/output embeddings, the local
    encoder, the decoder, the readout, and the attention scorer's W_a, v_a,
    b_a; the glo model contributes its encoder as the second (global-summary)
    encoder, which from then on reads the attention model's embeddings. A
    tensor whose shape differs from its source's keeps the value that
    init_params("hyb", loc_params.dims, rng) draws for it: L, W_0, W_c and
    attn.U_a, whose width doubles with the context.

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

    params = init_params("hyb", ld, rng)
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
    Each batch's gradients come from _backward, the embeddings' on their
    read rows only, and go to sgd_step through this module's attribute.
    Each history row is also written to log_stream as a tab-separated line
    when one is given. A config.lr or config.clip_norm that sgd_step would
    refuse is refused here, by its field's name, before any batch.
    """
    if not pairs:
        raise ValueError("cannot train on an empty pair list")
    if not (math.isfinite(config.lr) and config.lr >= 0.0):
        raise ValueError(f"lr must be finite and nonnegative, got {config.lr}")
    if config.clip_norm is not None and not (math.isfinite(config.clip_norm)
                                             and config.clip_norm > 0):
        raise ValueError(f"clip_norm must be positive and finite, got {config.clip_norm}")
    history = []
    for epoch in range(1, config.epochs + 1):
        batches = make_batches(pairs, vocabs, config.batch_size, rng,
                               config.max_response_len)
        total_nll = 0.0
        total_tokens = 0.0
        for batch_index, batch in enumerate(batches):
            loss, grads = _backward(params, batch)
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
