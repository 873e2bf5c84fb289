"""GRU encoder-decoder with three context schemes.

The encoder reads the post left to right; the decoder emits the response one
token at a time, conditioned on a context vector. Scheme "glo" uses the final
encoder state as a fixed context, "loc" attends over the per-token encoder
states, and "hyb" attends over per-token states each concatenated with the
final state g of a second, separately parameterized encoder. Attention
weights sum to 1, so hyb's context is [attended states, g]: its memory
holds the states alone, and g enters the scores as one term per post and
the context as itself. The schemes differ only in the ContextMemory that
context_memory builds from the encoder output; every decoder step reads
its context from that memory. The decoders' memory of a post
(_post_memory) also holds the products of the context that a step reads,
under loc and hyb those of the attended states, so their steps form no
context.

Conventions used throughout: weight matrices are (d_out, d_in) and applied to
row-stacked activations as ``x @ W.T``; states are (batch, d_h); everything is
float64 in memory. Every tensor is C-contiguous but one: W_o is stored as its
transpose, a C-contiguous (d_r, v_resp) array, and ModelParams.W_o is that
array's transposed view, so ``x @ W_o.T`` hands BLAS a contiguous operand.
Routines that walk a tensor's memory reach it through numerics._c_order.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from .corpus import BOS_ID, EOS_ID, PAD_ID
from .numerics import Rng, _c_order, _row_slices, log_softmax, softmax_stable

__all__ = [
    "CheckpointFormatError",
    "Dims",
    "GruParams",
    "AttentionParams",
    "ModelParams",
    "EncodedPost",
    "ContextMemory",
    "init_params",
    "gru_step",
    "encode",
    "encode_post",
    "context_memory",
    "context_vector",
    "decoder_init",
    "decoder_step",
    "sequence_log_likelihood",
    "save_checkpoint",
    "load_checkpoint",
]

SCHEMES = ("glo", "loc", "hyb")
_SCHEME_TO_CODE = {"glo": 0, "loc": 1, "hyb": 2}
_CODE_TO_SCHEME = {v: k for k, v in _SCHEME_TO_CODE.items()}

_MAGIC = b"NRMC"
_VERSION = 1


class CheckpointFormatError(ValueError):
    """A checkpoint file violates the documented binary layout."""


@dataclass(frozen=True)
class Dims:
    """Layer widths and vocabulary sizes.

    d_h: encoder/decoder state width; d_emb: embedding width; d_a: attention
    hidden width (0 is fine for the glo scheme, which has no attention); d_L:
    width of the projected context fed to the decoder input; d_r: readout
    width; v_post / v_resp: vocabulary sizes including the 4 reserved ids.
    """

    d_h: int
    d_emb: int
    d_a: int
    d_L: int
    d_r: int
    v_post: int
    v_resp: int


def _gate(stack: str, k: int) -> property:
    """A read-only attribute: the k-th block of d_h rows of the stacked
    array `stack`, as a view."""
    def rows(cell):
        d_h = len(cell.U_h)
        return getattr(cell, stack)[k * d_h:(k + 1) * d_h]
    return property(rows)


@dataclass
class GruParams:
    """One gated recurrent cell.

    Update equations, with x the input and h the carried state:

        z = sigmoid(W_z x + U_z h + b_z)        write gate
        r = sigmoid(W_r x + U_r h + b_r)        reset gate
        hbar = tanh(W_h x + U_h (r * h) + b_h)  candidate
        h_new = (1 - z) * h + z * hbar

    The gates are stacked, so one product serves all of them: W (3 d_h,
    d_in) holds the rows of W_z, W_r and W_h, U_zr (2 d_h, d_h) those of
    U_z and U_r, and b (3 d_h,) b_z, b_r and b_h, in that order. U_h is
    its own array. W_z, W_r, W_h, U_z, U_r, b_z, b_r and b_h are read-only
    attributes, each a view of its rows of the stack: writing into one
    writes the stack, and none can be rebound.
    """

    W: np.ndarray
    U_zr: np.ndarray
    U_h: np.ndarray
    b: np.ndarray

    W_z, W_r, W_h = (_gate("W", k) for k in range(3))
    U_z, U_r = (_gate("U_zr", k) for k in range(2))
    b_z, b_r, b_h = (_gate("b", k) for k in range(3))


@dataclass
class AttentionParams:
    """Single-layer additive scorer: e_j = v_a . tanh(W_a s + U_a h_j + b_a)."""

    W_a: np.ndarray
    U_a: np.ndarray
    v_a: np.ndarray
    b_a: np.ndarray


@dataclass
class ModelParams:
    """All trainable tensors for one scheme.

    _expected_shapes is the one declaration of the tensors: their names,
    shapes, order and the schemes that have them. enc_g and attn are None
    when the scheme does not use them. ``L`` projects the context vector into
    the decoder input; W_0 maps the initial context to the decoder start
    state; W_s/W_y/W_c/b_r form the pre-softmax readout and W_o/b_o the
    output layer. W_o (v_resp, d_r) is the transposed view of a
    C-contiguous (d_r, v_resp) array, the layout of its products
    (_new_params); its name, shape and values are those of the tensor.
    """

    scheme: str
    dims: Dims
    E_x: np.ndarray
    E_y: np.ndarray
    enc: GruParams
    enc_g: GruParams | None
    dec: GruParams
    L: np.ndarray
    attn: AttentionParams | None
    W_0: np.ndarray
    W_s: np.ndarray
    W_y: np.ndarray
    W_c: np.ndarray
    b_r: np.ndarray
    W_o: np.ndarray
    b_o: np.ndarray

    def named_tensors(self) -> dict[str, np.ndarray]:
        """Every tensor, named and ordered as _expected_shapes lists them; a
        dotted name is a field of a cell. The order is the checkpoint's."""
        return {name: functools.reduce(getattr, name.split("."), self)
                for name in _expected_shapes(self.scheme, self.dims)}


@dataclass
class EncodedPost:
    """Encoder outputs for a batch of posts.

    states is (B, T, d_h) with zeros at padded positions; final is each
    row's state at its last token, states[rows, lengths - 1]. global_final
    is the second encoder's final state (hybrid scheme only, else None).
    """

    states: np.ndarray
    mask: np.ndarray
    lengths: np.ndarray
    final: np.ndarray
    global_final: np.ndarray | None = None


def _expected_shapes(scheme: str, dims: Dims) -> dict[str, tuple]:
    """Name -> shape of every tensor of the scheme, in checkpoint order: the
    one table that names the tensors and ties them to schemes. A dotted name
    "cell.field" lives in that ModelParams cell."""
    # hyb appends the second encoder's state to the context vector
    d_ctx = 2 * dims.d_h if scheme == "hyb" else dims.d_h
    shapes: dict[str, tuple] = {
        "E_x": (dims.v_post, dims.d_emb),
        "E_y": (dims.v_resp, dims.d_emb),
    }

    def gru(prefix: str, d_in: int) -> None:
        for g in ("z", "r", "h"):
            shapes[f"{prefix}.W_{g}"] = (dims.d_h, d_in)
            shapes[f"{prefix}.U_{g}"] = (dims.d_h, dims.d_h)
            shapes[f"{prefix}.b_{g}"] = (dims.d_h,)

    gru("enc", dims.d_emb)
    if scheme == "hyb":
        gru("enc_g", dims.d_emb)
    gru("dec", dims.d_emb + dims.d_L)
    shapes["L"] = (dims.d_L, d_ctx)
    if scheme in ("loc", "hyb"):
        shapes["attn.W_a"] = (dims.d_a, dims.d_h)
        shapes["attn.U_a"] = (dims.d_a, d_ctx)
        shapes["attn.v_a"] = (dims.d_a,)
        shapes["attn.b_a"] = (dims.d_a,)
    shapes["W_0"] = (dims.d_h, d_ctx)
    shapes["W_s"] = (dims.d_r, dims.d_h)
    shapes["W_y"] = (dims.d_r, dims.d_emb)
    shapes["W_c"] = (dims.d_r, d_ctx)
    shapes["b_r"] = (dims.d_r,)
    shapes["W_o"] = (dims.v_resp, dims.d_r)
    shapes["b_o"] = (dims.v_resp,)
    return shapes


def _new_params(scheme: str, dims: Dims, new=np.empty) -> ModelParams:
    """A ModelParams of new arrays, new(shape) each, in the shapes
    _expected_shapes declares. A GRU cell's stacked arrays are new arrays
    and its gate tensors views of them, so writing the named tensors
    writes the stacks. W_o is new((d_r, v_resp)).T: every product reads
    it as W_o.T, which is then C-contiguous."""
    shapes = _expected_shapes(scheme, dims)

    def gru(cell):
        if f"{cell}.W_z" not in shapes:
            return None
        d_h, d_in = shapes[f"{cell}.W_z"]
        return GruParams(new((3 * d_h, d_in)), new((2 * d_h, d_h)), new((d_h, d_h)),
                         new((3 * d_h,)))

    attn = (AttentionParams(*(new(shapes[f"attn.{f.name}"]) for f in fields(AttentionParams)))
            if "attn.W_a" in shapes else None)
    top = {name: new(shape[::-1]).T if name == "W_o" else new(shape)
           for name, shape in shapes.items() if "." not in name}
    return ModelParams(scheme, dims, enc=gru("enc"), enc_g=gru("enc_g"), dec=gru("dec"),
                       attn=attn, **top)


_GOLDEN = 0x9E3779B97F4A7C15   # splitmix64's counter increment
_INIT_CHUNK = 1 << 14          # entries filled per pass (at least a row), bounding every temporary


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, in place on a uint64 array (modulo 2**64)."""
    z ^= z >> 30
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> 27
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> 31
    return z


def _fnv1a64(text: str) -> int:
    """64-bit FNV-1a hash of the utf-8 bytes of text."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) % 2**64
    return h


def _fill_uniform(out: np.ndarray, base: np.uint64, low: float, high: float) -> None:
    """Write entry i of out as low + (high - low) * u_i, where u_i is the top
    53 bits of mix64(base + (i + 1) * 0x9E3779B97F4A7C15) over 2**53, and i
    numbers out's entries row-major in its logical shape, whatever its
    layout. The entries are written in memory order, rows of _c_order(out)
    a block at a time, each entry from its own i: in W_o's storage, the
    transpose, entry (a, b) is W_o's (b, a), whose i is b * d_r + a."""
    mem = _c_order(out)
    grid = mem.reshape(len(mem), mem[:1].size)  # a 1-d tensor as one column
    rows, cols = grid.shape
    # i of grid[a, b] is a * step_a + b * step_b
    step_a, step_b = (cols, 1) if mem is out else (1, rows)
    col_i = np.arange(cols, dtype=np.uint64) * np.uint64(step_b) + np.uint64(1)
    for block in _row_slices(grid, _INIT_CHUNK):
        u = grid[block]
        z = col_i + np.arange(block.start, block.start + len(u),
                              dtype=np.uint64)[:, None] * np.uint64(step_a)
        z *= np.uint64(_GOLDEN)
        z += base
        _mix64(z)
        z >>= 11
        np.multiply(z, 2.0**-53, out=u)
        u *= high - low
        u += low


def init_params(scheme: str, dims: Dims, rng: Rng,
                low: float = -0.1, high: float = 0.1) -> ModelParams:
    """Fresh parameters, every entry uniform in [low, high).

    Takes exactly one draw from rng, key = rng.next_u64(), and fills every
    tensor from a counter-based splitmix64 stream (Steele et al. 2014,
    "Fast splittable PRNGs"; Salmon et al. 2011, "Parallel random numbers:
    as easy as 1, 2, 3"). All arithmetic is modulo 2**64, with

        mix64(z): z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9
                  z = (z ^ z >> 27) * 0x94D049BB133111EB
                  return z ^ z >> 31

    A tensor's base word is mix64(key ^ fnv1a64(name)), with fnv1a64 the
    64-bit FNV-1a hash of the utf-8 name (e.g. "enc.U_z"). Its row-major
    entry i draws x = mix64(base + (i + 1) * 0x9E3779B97F4A7C15) and takes
    low + (high - low) * u with u = (x >> 11) * 2**-53, the top 53 bits, as
    Rng.next_float does. A tensor's values thus depend only on the key, its
    name and its size: tensors of the same name and shape are equal across
    the three schemes.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    key = rng.next_u64()
    params = _new_params(scheme, dims)
    for name, arr in params.named_tensors().items():
        base = _mix64(np.array([key ^ _fnv1a64(name)], dtype=np.uint64))[0]
        _fill_uniform(arr, base, low, high)
    return params


def gru_step(cell: GruParams, x: np.ndarray, h_prev: np.ndarray) -> np.ndarray:
    """Advance the cell one step for a (B, d_in) input. Returns (B, d_h)."""
    return _gru_step(cell, x @ cell.W.T + cell.b, h_prev)


def _gru_step(cell: GruParams, xw: np.ndarray, h_prev: np.ndarray, zr=None, hbar=None):
    """One step of the cell over n rows, given their input products
    xw = x @ W.T + b, (n, 3 d_h). Returns the new state (n, d_h).

    The gates z|r (n, 2 d_h) and the candidate hbar (n, d_h) go into zr
    and hbar when they are given: the tape training's adjoint reads. Each
    pre-activation is built in its output array and activated there (the
    sigmoid as 0.5 (1 + tanh(0.5 x)), which cannot overflow), and the new
    state takes one scratch array, with the bits of the composed formulas.
    """
    d_h = h_prev.shape[1]
    zr = np.matmul(h_prev, cell.U_zr.T, out=zr)
    zr += xw[:, :2 * d_h]
    zr *= 0.5
    np.tanh(zr, out=zr)
    zr += 1.0
    zr *= 0.5
    z, r = zr[:, :d_h], zr[:, d_h:]
    hbar = np.matmul(r * h_prev, cell.U_h.T, out=hbar)
    hbar += xw[:, 2 * d_h:]
    np.tanh(hbar, out=hbar)
    h = np.subtract(1.0, z)
    h *= h_prev
    scratch = np.multiply(z, hbar)
    h += scratch
    return h


def _gru_tape(x: np.ndarray, d_h: int):
    """The tape of a packed recurrence whose step rows read the inputs x
    (n, d_in): (x, h_prev, zr, hbar), whose row i belongs to the same step
    row in each. h_prev (n, d_h), the state each row reads, and the gates
    zr (n, 2 d_h) and candidate hbar (n, d_h) that _gru_step writes are
    left empty for the steps to fill."""
    return (x,) + tuple(np.empty((len(x), w)) for w in (d_h, 2 * d_h, d_h))


def _packing(lengths):
    """The packed layout of rows of the given lengths: (order, steps, live).

    order is the rows in a stable order of descending length, so the rows
    longer than t are a prefix of it, and a step t of a recurrence over the
    rows in that order runs that prefix only (the packed sequences of
    PyTorch's pack_padded_sequence). steps has one entry (n, rows) per step
    up to the longest length: n is the step's live-row count, and rows is
    the step's slice of the packed arrays. live (steps, B) is True where a
    row, in that order, has step t: x[live] of a (steps, B, ...) array x
    lists step 0's rows, then step 1's, and so on, the step-major packed
    layout whose slices steps gives.
    """
    order = np.argsort(-lengths, kind="stable")
    live = lengths[order] > np.arange(lengths.max(initial=0))[:, None]
    counts = np.count_nonzero(live, axis=1).tolist()
    steps = [(n, slice(end - n, end)) for n, end in zip(counts, itertools.accumulate(counts))]
    return order, steps, live


def _run_encoder(cell, E_x, ids, lengths):
    """Left-to-right pass over the rows' tokens, packed: the rows are taken
    in _packing's order, and each step runs its live rows only, the posts
    longer than it. The input products of every token come from one
    product before the loop. Returns (states, final, tape): states
    (B, T, d_h) in the caller's row order, exactly 0 at padded positions;
    each row's state at its length; and the (order, steps, token ids,
    _gru_tape) that backprop reads, the ids and the GRU tape packed
    step-major."""
    order, steps, live = _packing(lengths)
    b, t_post = ids.shape
    d_h = cell.U_h.shape[0]
    tokens = ids[order, :len(steps)].T[live]
    tape = _gru_tape(E_x[tokens], d_h)
    x, h_prev, zr, hbar = tape
    xw = x @ cell.W.T
    xw += cell.b
    h = np.zeros((b, d_h))
    packed = np.zeros((t_post, b, d_h))  # time-major, rows in the packed order
    for t, (n, rows) in enumerate(steps):
        h_prev[rows] = h[:n]
        h = _gru_step(cell, xw[rows], h_prev[rows], zr[rows], hbar[rows])
        packed[t, :n] = h
    states = np.empty((b, t_post, d_h))
    states[order] = packed.transpose(1, 0, 2)
    return states, states[np.arange(b), lengths - 1], (order, steps, tokens, tape)


def _check_ids(ids, v: int, side: str) -> np.ndarray:
    """ids as an int64 array. A ValueError names the first id that is not
    an integer, then the first outside [0, v): a table row index is neither
    truncated, nor wraps around, nor runs past the table."""
    ids = np.asarray(ids)
    if ids.dtype.kind == "f":
        bad = ids != np.trunc(ids)  # NaN too
        if bad.any():
            raise ValueError(f"{side} id {float(ids[bad][0])} is not an integer")
    elif ids.dtype.kind not in "iub":  # text or objects: converted as numpy converts them
        ids = ids.astype(np.int64)
    bad = (ids < 0) | (ids >= v)
    if bad.any():
        first = ids[bad][0].item()
        if isinstance(first, float) and first.is_integer():
            first = int(first)
        raise ValueError(f"{side} id {first} is outside the vocabulary [0, {v})")
    return ids.astype(np.int64, copy=False)


def _mask_lengths(mask, name: str, row: str):
    """Each row's length under a padding mask; a ValueError unless the mask
    is 1 on a prefix of every row and 0 after it."""
    lengths = np.count_nonzero(mask, axis=1)
    if (mask != (np.arange(mask.shape[1]) < lengths[:, None])).any():
        raise ValueError(f"{name} must be 1 on each {row}'s tokens and 0 after them")
    return lengths


def _encode(params: ModelParams, post_ids, post_mask, rows=slice(None)):
    """As encode, but returns (enc_out, (enc tape, enc_g tape or None)),
    each tape as _run_encoder returns it. rows picks and orders the posts
    to encode, once the whole batch is checked."""
    post_ids = np.asarray(post_ids)
    post_mask = np.asarray(post_mask, dtype=np.float64)
    if post_ids.ndim != 2 or post_mask.shape != post_ids.shape:
        raise ValueError(
            f"post_ids and post_mask must be matching 2-d arrays, "
            f"got {post_ids.shape} and {post_mask.shape}")
    post_ids = _check_ids(post_ids, params.dims.v_post, "post")
    lengths = _mask_lengths(post_mask, "post_mask", "post")
    if (lengths < 1).any():
        raise ValueError("every post in a batch must have at least one token")
    post_ids, post_mask, lengths = post_ids[rows], post_mask[rows], lengths[rows]
    states, final, tape = _run_encoder(params.enc, params.E_x, post_ids, lengths)
    global_final, g_tape = None, None
    if params.scheme == "hyb":
        _, global_final, g_tape = _run_encoder(params.enc_g, params.E_x, post_ids, lengths)
    enc_out = EncodedPost(states=states, mask=post_mask, lengths=lengths,
                          final=final, global_final=global_final)
    return enc_out, (tape, g_tape)


def encode(params: ModelParams, post_ids: np.ndarray, post_mask: np.ndarray) -> EncodedPost:
    """Run the encoder(s) over a padded batch of posts. post_mask must be 1
    on each post's (at least one) tokens and 0 after them, and every id in
    post_ids must be an integer in [0, v_post), else ValueError."""
    return _encode(params, post_ids, post_mask)[0]


def encode_post(params: ModelParams, post_ids) -> EncodedPost:
    """Encode a single post given as a plain id sequence."""
    ids = np.asarray(post_ids).reshape(1, -1)
    if ids.size == 0:
        raise ValueError("cannot encode an empty post")
    return encode(params, ids, np.ones(ids.shape))


@dataclass
class ContextMemory:
    """What the decoder reads of a batch of encoded posts, for every scheme.

    init (B, d_ctx) is the final encoder state, with the second encoder's
    final state g appended under hyb: W_0's input. Its columns past the
    width of values are read straight into every context: all of them
    under glo, whose context is init at every step, and g under hyb, whose
    context is [sum_j alpha_j h_j, g]. Under loc and hyb, values (B, T,
    d_h) are the encoder states the context averages; keys (B, T, d_a) are
    the part of every score that does not depend on the decoder state,
    values @ U_a[:, :d_h].T plus one term per row, g @ U_a[:, d_h:].T + b_a
    under hyb and b_a under loc; mask (B, T) is 1 on real tokens. Under glo
    those three are None.

    A decoder step reads the context through two terms: L c, in the
    decoder GRU's input products through dec.W's last d_L columns, and
    the readout's W_c c. Both are linear in c, so each splits into the
    products of the attended average and those of init's columns past
    the width of values, which are fixed for a post. lc (B, d_L) is those
    columns' part of L c, xw_lc (B, 3 d_h) its part of the input products,
    lc @ dec.W[:, d_emb:].T, and read_c (B, d_r) their part of W_c c.
    context_memory forms them under glo, where they are the whole terms;
    the decoders' one-post memory (_post_memory) forms them under every
    scheme (zeros under loc, g's products under hyb), and under loc and
    hyb also proj (T, 3 d_h + d_r): the attended states' products,
    [values @ L[:, :d_h].T @ dec.W[:, d_emb:].T, values @ W_c[:, :d_h].T]
    of its post, so that a step's terms are alpha @ proj plus xw_lc and
    read_c. proj is None under glo, and context_memory's memory under loc
    and hyb holds none of the four: training forms its contexts' products
    once over all rows.

    A memory with B == 1 serves any number of decoder rows by broadcasting.
    """

    init: np.ndarray
    values: np.ndarray | None = None
    keys: np.ndarray | None = None
    mask: np.ndarray | None = None
    lc: np.ndarray | None = None
    xw_lc: np.ndarray | None = None
    read_c: np.ndarray | None = None
    proj: np.ndarray | None = None


def _memory_rows(memory: ContextMemory, rows) -> ContextMemory:
    """The given rows of a context memory: views for a slice, a gather for
    an index array. The memory holds no proj, whose rows are positions."""
    return ContextMemory(**{f.name: None if (a := getattr(memory, f.name)) is None else a[rows]
                            for f in fields(ContextMemory)})


def _fixed_terms(params: ModelParams, init: np.ndarray, d_v: int):
    """(lc, xw_lc, read_c) of init's columns past d_v: the context's part
    that no attention weight multiplies, projected as ContextMemory
    describes. Zeros when d_v is init's width."""
    lc = init[:, d_v:] @ params.L[:, d_v:].T
    return lc, lc @ params.dec.W[:, params.dims.d_emb:].T, init[:, d_v:] @ params.W_c[:, d_v:].T


def context_memory(params: ModelParams, enc_out: EncodedPost) -> ContextMemory:
    """Build the context memory of encoded posts once, for every decoder
    step over them: under glo, the context's products; under loc and hyb,
    the attention's keys."""
    init, values = enc_out.final, enc_out.states
    if params.scheme == "hyb":
        init = np.concatenate([init, enc_out.global_final], axis=1)
    if params.attn is None:
        lc, xw_lc, read_c = _fixed_terms(params, init, 0)
        return ContextMemory(init, lc=lc, xw_lc=xw_lc, read_c=read_c)
    d_h, U_a = values.shape[2], params.attn.U_a
    keys = values @ U_a[:, :d_h].T
    keys += (init[:, d_h:] @ U_a[:, d_h:].T + params.attn.b_a)[:, None, :]
    return ContextMemory(init, values, keys, enc_out.mask)


def _post_memory(params: ModelParams, post_ids) -> ContextMemory:
    """The memory every decoder builds of one post (an id sequence):
    context_memory's, and under loc and hyb also the attended states'
    products proj and the fixed terms, so that no step forms a context or
    a product with L, dec.W's L c columns or W_c. Re-scoring builds the
    same, so it shares the decoders' arithmetic."""
    memory = context_memory(params, encode_post(params, post_ids))
    if memory.values is None:
        return memory
    values = memory.values[0]
    d_v = values.shape[1]
    memory.lc, memory.xw_lc, memory.read_c = _fixed_terms(params, memory.init, d_v)
    memory.proj = np.concatenate(
        [(values @ params.L[:, :d_v].T) @ params.dec.W[:, params.dims.d_emb:].T,
         values @ params.W_c[:, :d_v].T], axis=1)
    return memory


def _attention(params: ModelParams, memory: ContextMemory, s_prev: np.ndarray, ta=None):
    """Attention weights alpha (B, T) of each row of s_prev over the
    memory's positions, 0 at padding. The scorer's tanh(W_a s + U_a h_j +
    b_a) for every row and position, (B, T, d_a), goes into ta when it is
    given: the tape training's attention adjoint reads."""
    ta = np.add((s_prev @ params.attn.W_a.T)[:, None, :], memory.keys, out=ta)
    scores = np.tanh(ta, out=ta) @ params.attn.v_a
    scores = np.where(memory.mask > 0.0, scores, -np.inf)
    return softmax_stable(scores, axis=1)


def _context(params: ModelParams, memory: ContextMemory, s_prev: np.ndarray, ta=None):
    """Context for each row of s_prev. Returns (c, alpha); alpha is None for
    glo. Under loc and hyb, ta is _attention's."""
    if memory.keys is None:
        return np.broadcast_to(memory.init, (len(s_prev), memory.init.shape[1])), None
    alpha = _attention(params, memory, s_prev, ta)
    d_h = memory.values.shape[2]
    c = np.empty((len(s_prev), memory.init.shape[1]))
    # (B, 1, T) @ (B or 1, T, d_h): c_b = sum_j alpha_bj h_j, then g under hyb
    c[:, :d_h] = (alpha[:, None, :] @ memory.values)[:, 0, :]
    c[:, d_h:] = memory.init[:, d_h:]
    return c, alpha


def context_vector(params: ModelParams, enc_out: EncodedPost, s_prev: np.ndarray):
    """Context for one decoder step. Returns (c, alpha); alpha is None for glo.

    c has one row per row of s_prev. The context memory is built from
    enc_out on every call; enc_out may hold one post broadcast over all rows.
    """
    return _context(params, context_memory(params, enc_out), s_prev)


def _start_state(params: ModelParams, memory: ContextMemory) -> np.ndarray:
    return np.tanh(memory.init @ params.W_0.T)


def decoder_init(params: ModelParams, enc_out: EncodedPost) -> np.ndarray:
    """Start state s_0 = tanh(W_0 c_0). c_0 is the final encoder state, with
    the second encoder's final state appended under hyb."""
    return _start_state(params, context_memory(params, enc_out))


# Rows per block of _output_layer's bias and log-softmax. A block's exp
# temporary is this many rows of v_resp, kept small beside the rows' buffer.
_SOFTMAX_ROWS = 8


def _decoder_xw(params: ModelParams, y_emb: np.ndarray) -> np.ndarray:
    """The previous tokens' part of the decoder GRU's input products,
    y_emb @ W[:, :d_emb].T + b: its input is u = [y_emb, L c], so W's first
    d_emb columns read y_emb. Teacher forcing forms it for every step in
    one product."""
    xw = y_emb @ params.dec.W[:, :params.dims.d_emb].T
    xw += params.dec.b
    return xw


def _readout(params: ModelParams, s_t: np.ndarray, y_emb: np.ndarray, read_c: np.ndarray):
    """The readout tanh(W_s s_t + W_y y_emb + W_c c + b_r) of rows of
    (s_t, y_emb), given their context term read_c = c @ W_c.T, one row
    per row or one row for all: the input of the output layer's W_o
    product."""
    return np.tanh(s_t @ params.W_s.T + y_emb @ params.W_y.T + read_c + params.b_r)


def _output_layer(params: ModelParams, s_t: np.ndarray, y_emb: np.ndarray, c: np.ndarray,
                  out: np.ndarray | None = None, read_c: np.ndarray | None = None):
    """Readout and output softmax for rows of (s_t, y_emb, c); returns
    (rout, log_probs). Each row depends only on its own inputs. The
    readout's context term read_c = c @ W_c.T is formed from c unless it
    is given, when c is not read.

    The log-probabilities go into out, a C-contiguous (rows, v_resp) array,
    when it is given. The bias and the log-softmax run on blocks of rows in
    place, so their temporaries stay a block's size however many rows the
    call has.
    """
    rout = _readout(params, s_t, y_emb, c @ params.W_c.T if read_c is None else read_c)
    logits = np.matmul(rout, params.W_o.T, out=out)
    for start in range(0, len(logits), _SOFTMAX_ROWS):
        block = logits[start:start + _SOFTMAX_ROWS]
        block += params.b_o
        log_softmax(block, axis=1, out=block)
    return rout, logits


def _context_terms(params: ModelParams, memory: ContextMemory, s_prev: np.ndarray):
    """The context's two terms for each row of s_prev: (xw_c, read_c,
    alpha), with xw_c (rows, 3 d_h) = (L c) @ dec.W[:, d_emb:].T, the
    context's part of the decoder GRU's input products, read_c (rows, d_r)
    = c @ W_c.T, the readout's context term, and alpha the attention
    weights, None under glo.

    memory holds one post broadcast over every row of s_prev, or one row
    per row. Under glo the terms are its products, one row per memory row,
    which broadcast over s_prev's rows in the step's sums. With proj
    (the decoders' one-post memory under loc and hyb) they are alpha @
    proj, one product, plus the fixed terms: no context is formed and no
    product with L, dec.W or W_c. Otherwise (context_memory's memory under
    loc and hyb) the context c is formed and multiplied by L, dec.W's L c
    columns and W_c."""
    if memory.keys is None:
        return memory.xw_lc, memory.read_c, None
    if memory.proj is None:
        c, alpha = _context(params, memory, s_prev)
        return ((c @ params.L.T) @ params.dec.W[:, params.dims.d_emb:].T,
                c @ params.W_c.T, alpha)
    alpha = _attention(params, memory, s_prev)
    terms = alpha @ memory.proj
    d_x = memory.xw_lc.shape[1]
    xw_c, read_c = terms[:, :d_x], terms[:, d_x:]
    xw_c += memory.xw_lc
    read_c += memory.read_c
    return xw_c, read_c, alpha


def _decoder_step(params: ModelParams, memory: ContextMemory | None, s_prev: np.ndarray,
                  y_prev, out: np.ndarray | None = None, terms: tuple | None = None):
    """The decoding step every decoder runs: the context's terms, the
    decoder GRU, then the output layer.

    The terms are _context_terms(params, memory, s_prev) unless the caller
    passes them, when memory is not read. The log-probabilities go into
    out when it is given. Returns (s_t, log_probs, alpha); alpha is the
    step's attention weights, None under glo (and the terms' third entry
    when they are given)."""
    xw_c, read_c, alpha = _context_terms(params, memory, s_prev) if terms is None else terms
    y_emb = params.E_y[y_prev]
    xw = _decoder_xw(params, y_emb)
    xw += xw_c
    s_t = _gru_step(params.dec, xw, s_prev)
    return s_t, _output_layer(params, s_t, y_emb, None, out=out, read_c=read_c)[1], alpha


def decoder_step(params: ModelParams, enc_out: EncodedPost,
                 s_prev: np.ndarray, y_prev) -> tuple:
    """Advance the decoder one token. Returns (s_t, probs, alpha).

    probs is the full next-token distribution (B, v_resp); alpha is the
    attention weights used for this step, or None under the glo scheme.
    The context memory is built from enc_out on every call; enc_out may
    hold one post broadcast over every row of s_prev. Every id in y_prev
    must be an integer in [0, v_resp), else ValueError.
    """
    y_prev = _check_ids(y_prev, params.dims.v_resp, "response")
    s_t, logp, alpha = _decoder_step(params, context_memory(params, enc_out), s_prev, y_prev)
    return s_t, np.exp(logp), alpha


def sequence_log_likelihood(params: ModelParams, post_ids, resp_ids) -> float:
    """Log-probability of a response (content ids, no frame tokens).

    The response is scored as y_1 .. y_m followed by the end marker, starting
    from the begin marker, so every candidate the decoders return re-scores
    to its score up to floating-point roundoff. An empty response has no
    probability under this framing, and an id that is not an integer in
    [0, v_resp), or a padding, begin or end marker inside the response, has
    none in this model: each raises ValueError, as a post id that is not an
    integer in [0, v_post) does.
    """
    resp_ids = list(resp_ids)
    if not resp_ids:
        raise ValueError("cannot score an empty response")
    resp = _check_ids(resp_ids, params.dims.v_resp, "response")
    markers = resp[np.isin(resp, (PAD_ID, BOS_ID, EOS_ID))]
    if markers.size:
        raise ValueError(f"response id {int(markers[0])} is a padding, begin or end "
                         f"marker, which a response holds only as its frame")
    memory = _post_memory(params, post_ids)
    s = _start_state(params, memory)
    targets = resp.tolist() + [EOS_ID]
    y_prev = np.array([BOS_ID])
    total = 0.0
    for y_t in targets:
        s, logp, _ = _decoder_step(params, memory, s, y_prev)
        total += float(logp[0, y_t])
        y_prev = np.array([y_t])
    return total


# --- checkpoint I/O ---------------------------------------------------------
#
# Layout (all integers little-endian):
#   _HEADER: magic "NRMC" | version u32 | scheme u8 | precision u8 (4 or 8)
#     | the _STORED_DIMS sizes as 6 x u32 | tensor count u32
#   | per tensor: name length u16, utf-8 name, ndim u8, each dim u32,
#     raw IEEE-754 little-endian row-major payload.
# The readout width d_r is not stored; it is recovered from W_s at load.

_HEADER = "<4sIBB6II"
_STORED_DIMS = ("d_h", "d_emb", "d_a", "d_L", "v_post", "v_resp")
# Entries per row block in which a payload is written and read
_IO_BLOCK = 1 << 15


class _Reader:
    """Reads a checkpoint file front to back. The size comes from fstat, so a
    short file is reported before anything is read past its end."""

    def __init__(self, fh, path):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.off = 0
        self.path = path

    def require(self, n: int, what: str) -> None:
        """Raise CheckpointFormatError unless n more bytes remain."""
        if self.off + n > self.size:
            raise CheckpointFormatError(
                f"{self.path}: truncated at offset {self.off}: "
                f"needed {n} bytes for {what}, had {self.size - self.off}")

    def skip(self, n: int, what: str) -> None:
        """Move past the next n bytes, which must be there."""
        self.require(n, what)
        self.fh.seek(n, os.SEEK_CUR)
        self.off += n

    def seek(self, off: int) -> None:
        self.fh.seek(off)
        self.off = off

    def read_into(self, buf: memoryview, what: str) -> None:
        """Fill buf with the next len(buf) bytes."""
        self.require(len(buf), what)
        got = self.fh.readinto(buf)
        if got != len(buf):
            raise CheckpointFormatError(
                f"{self.path}: file shrank while being read, at offset {self.off + got}")
        self.off += got

    def unpack(self, fmt: str, what: str) -> tuple:
        """The next struct.calcsize(fmt) bytes, unpacked by fmt."""
        buf = bytearray(struct.calcsize(fmt))
        self.read_into(memoryview(buf), what)
        return struct.unpack(fmt, buf)


def save_checkpoint(params: ModelParams, path, precision: int = 8) -> None:
    """Write all tensors to a self-describing binary file.

    Each payload is written a row block at a time, each block from its
    own memory where that is C-contiguous at the stored precision and
    through a block-sized copy otherwise (W_o, whose memory holds its
    transpose, and every tensor at 4-byte precision), so saving holds no
    tensor-sized copy.
    """
    if precision not in (4, 8):
        raise ValueError(f"precision must be 4 or 8 bytes per value, got {precision}")
    dtype = "<f4" if precision == 4 else "<f8"
    tensors = params.named_tensors()
    with open(path, "wb") as fh:
        fh.write(struct.pack(_HEADER, _MAGIC, _VERSION, _SCHEME_TO_CODE[params.scheme],
                             precision, *(getattr(params.dims, f) for f in _STORED_DIMS),
                             len(tensors)))
        for name, arr in tensors.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack(f"<H{len(encoded)}sB{arr.ndim}I",
                                 len(encoded), encoded, arr.ndim, *arr.shape))
            for rows in _row_slices(arr, _IO_BLOCK):
                fh.write(np.ascontiguousarray(arr[rows], dtype=dtype))


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint written by save_checkpoint.

    Malformed input raises CheckpointFormatError naming the byte offset of
    the problem. The whole file must be consumed; trailing bytes are an
    error, and so is a NaN or infinite value in any tensor. Tensors stored
    at 4-byte precision come back as float64. The tensor records are
    checked first, then each payload is read into its array of a new
    ModelParams a row block at a time: straight into the block where that
    is C-contiguous at the stored precision, and otherwise (W_o, whose
    memory holds its transpose, and every tensor at 4-byte precision)
    through a block-sized staging array. So loading holds little more than
    the model itself.
    """
    with open(path, "rb") as fh:
        return _read_checkpoint(_Reader(fh, path))


def _read_checkpoint(rd: _Reader) -> ModelParams:
    path = rd.path
    magic, version, scheme_code, precision, *sizes, count = rd.unpack(_HEADER, "header")
    if magic != _MAGIC:
        raise CheckpointFormatError(
            f"{path}: bad magic {magic!r} at offset 0, expected {_MAGIC!r}")
    if version != _VERSION:
        raise CheckpointFormatError(
            f"{path}: unsupported version {version} at offset 4, expected {_VERSION}")
    if scheme_code not in _CODE_TO_SCHEME:
        raise CheckpointFormatError(
            f"{path}: unknown scheme code {scheme_code} at offset 8")
    scheme = _CODE_TO_SCHEME[scheme_code]
    if precision not in (4, 8):
        raise CheckpointFormatError(
            f"{path}: bad precision {precision} at offset 9, expected 4 or 8")

    shapes: dict[str, tuple] = {}   # each tensor's shape, as its record gives it
    payloads: dict[str, int] = {}   # and its payload's offset
    for _ in range(count):
        name_off = rd.off
        (name_len,) = rd.unpack("<H", "tensor name length")
        raw, ndim = rd.unpack(f"<{name_len}sB", "tensor name and ndim")
        name = raw.decode("utf-8", errors="replace")
        if name in shapes:
            raise CheckpointFormatError(
                f"{path}: duplicate tensor {name!r} at offset {name_off}")
        shapes[name] = rd.unpack(f"<{ndim}I", f"dims of {name}")
        payloads[name] = rd.off
        rd.skip(math.prod(shapes[name]) * precision, f"payload of {name}")
    if rd.off != rd.size:
        raise CheckpointFormatError(
            f"{path}: {rd.size - rd.off} trailing byte(s) at offset {rd.off}")

    # d_r lives only in the tensor shapes
    if "W_s" not in shapes:
        raise CheckpointFormatError(f"{path}: missing tensor 'W_s'")
    if len(shapes["W_s"]) != 2:
        raise CheckpointFormatError(f"{path}: tensor 'W_s' must be 2-d")
    dims = Dims(d_r=shapes["W_s"][0], **dict(zip(_STORED_DIMS, sizes)))

    expected = _expected_shapes(scheme, dims)
    missing = sorted(set(expected) - set(shapes))
    extra = sorted(set(shapes) - set(expected))
    if missing:
        raise CheckpointFormatError(f"{path}: missing tensor(s) {', '.join(missing)}")
    if extra:
        raise CheckpointFormatError(f"{path}: unexpected tensor(s) {', '.join(extra)}")
    for name, shape in expected.items():
        if shapes[name] != shape:
            raise CheckpointFormatError(
                f"{path}: tensor {name!r} has shape {shapes[name]}, expected {shape}")

    dtype = np.dtype("<f4" if precision == 4 else "<f8")
    params = _new_params(scheme, dims)
    for name, arr in params.named_tensors().items():
        payload_off = payloads[name]
        rd.seek(payload_off)
        for rows in _row_slices(arr, _IO_BLOCK):
            block = arr[rows]
            direct = block.dtype == dtype and block.flags.c_contiguous
            raw = block if direct else np.empty(block.shape, dtype=dtype)
            block_off = rd.off
            rd.read_into(memoryview(raw.reshape(-1)).cast("B"), f"payload of {name}")
            # checked before the cast, which a signaling NaN would trip
            if not np.isfinite(raw).all():
                first = int(np.flatnonzero(~np.isfinite(raw))[0])
                raise CheckpointFormatError(
                    f"{path}: tensor {name!r} holds a non-finite value at offset "
                    f"{block_off + first * precision} (payload at offset {payload_off})")
            if raw is not block:
                block[...] = raw
    return params
