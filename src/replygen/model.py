"""GRU encoder-decoder with three context schemes.

The encoder reads the post left to right; the decoder emits the response one
token at a time, conditioned on a context vector. Scheme "glo" uses the final
encoder state as a fixed context, "loc" attends over the per-token encoder
states, and "hyb" attends over per-token states each concatenated with the
final state of a second, separately parameterized encoder. The schemes
differ only in the ContextMemory that context_memory builds from the
encoder output; every decoder step reads its context from that memory.

Conventions used throughout: weight matrices are (d_out, d_in) and applied to
row-stacked activations as ``x @ W.T``; states are (batch, d_h); everything is
float64 in memory.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .corpus import BOS_ID, EOS_ID
from .numerics import Rng, log_softmax, sigmoid, softmax_stable, tanh

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
    "attention_weights",
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


@dataclass
class GruParams:
    """One gated recurrent cell.

    Update equations, with x the input and h the carried state:

        z = sigmoid(W_z x + U_z h + b_z)        write gate
        r = sigmoid(W_r x + U_r h + b_r)        reset gate
        hbar = tanh(W_h x + U_h (r * h) + b_h)  candidate
        h_new = (1 - z) * h + z * hbar
    """

    W_z: np.ndarray
    U_z: np.ndarray
    b_z: np.ndarray
    W_r: np.ndarray
    U_r: np.ndarray
    b_r: np.ndarray
    W_h: np.ndarray
    U_h: np.ndarray
    b_h: np.ndarray


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

    enc_g and attn are None when the scheme does not use them. ``L`` projects
    the context vector into the decoder input; W_0 maps the initial context to
    the decoder start state; W_s/W_y/W_c/b_r form the pre-softmax readout and
    W_o/b_o the output layer.
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

    @property
    def d_ctx(self) -> int:
        return _context_width(self.scheme, self.dims)

    def named_tensors(self) -> dict[str, np.ndarray]:
        """All tensors in a fixed order; names are stable across save/load."""
        out: dict[str, np.ndarray] = {"E_x": self.E_x, "E_y": self.E_y}
        for prefix, cell in (("enc", self.enc), ("enc_g", self.enc_g), ("dec", self.dec)):
            if cell is None:
                continue
            for gate in ("W_z", "U_z", "b_z", "W_r", "U_r", "b_r", "W_h", "U_h", "b_h"):
                out[f"{prefix}.{gate}"] = getattr(cell, gate)
        out["L"] = self.L
        if self.attn is not None:
            for name in ("W_a", "U_a", "v_a", "b_a"):
                out[f"attn.{name}"] = getattr(self.attn, name)
        for name in ("W_0", "W_s", "W_y", "W_c", "b_r", "W_o", "b_o"):
            out[name] = getattr(self, name)
        return out


@dataclass
class EncodedPost:
    """Encoder outputs for a batch of posts.

    states is (B, T, d_h) with zeros at padded positions; final is the last
    real state per row. global_final is the second encoder's final state
    (hybrid scheme only, else None).
    """

    states: np.ndarray
    mask: np.ndarray
    lengths: np.ndarray
    final: np.ndarray
    global_final: np.ndarray | None = None


def _context_width(scheme: str, dims: Dims) -> int:
    """Width of the context vector: hyb appends the second encoder's state."""
    return 2 * dims.d_h if scheme == "hyb" else dims.d_h


def _expected_shapes(scheme: str, dims: Dims) -> dict[str, tuple]:
    d_ctx = _context_width(scheme, dims)
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


def _params_from_tensors(scheme: str, dims: Dims, t: dict[str, np.ndarray]) -> ModelParams:
    def gru(prefix: str) -> GruParams:
        return GruParams(**{g: t[f"{prefix}.{g}"] for g in
                            ("W_z", "U_z", "b_z", "W_r", "U_r", "b_r", "W_h", "U_h", "b_h")})

    attn = None
    if scheme in ("loc", "hyb"):
        attn = AttentionParams(W_a=t["attn.W_a"], U_a=t["attn.U_a"],
                               v_a=t["attn.v_a"], b_a=t["attn.b_a"])
    return ModelParams(
        scheme=scheme, dims=dims,
        E_x=t["E_x"], E_y=t["E_y"],
        enc=gru("enc"), enc_g=gru("enc_g") if scheme == "hyb" else None,
        dec=gru("dec"), L=t["L"], attn=attn,
        W_0=t["W_0"], W_s=t["W_s"], W_y=t["W_y"], W_c=t["W_c"],
        b_r=t["b_r"], W_o=t["W_o"], b_o=t["b_o"],
    )


def init_params(scheme: str, dims: Dims, rng: Rng,
                low: float = -0.1, high: float = 0.1) -> ModelParams:
    """Fresh parameters, every entry uniform in [low, high).

    Tensors are filled in named_tensors order so a given seed always yields
    the same model.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    tensors = {}
    for name, shape in _expected_shapes(scheme, dims).items():
        flat = np.array([rng.uniform(low, high) for _ in range(int(np.prod(shape)))])
        tensors[name] = flat.reshape(shape)
    return _params_from_tensors(scheme, dims, tensors)


def gru_step(cell: GruParams, x: np.ndarray, h_prev: np.ndarray) -> np.ndarray:
    """Advance the cell one step for a (B, d_in) input. Returns (B, d_h)."""
    return _gru_step_full(cell, x, h_prev)[0]


def _gru_step_full(cell, x, h_prev):
    """As gru_step, but also returns the gate activations for backprop."""
    z = sigmoid(x @ cell.W_z.T + h_prev @ cell.U_z.T + cell.b_z)
    r = sigmoid(x @ cell.W_r.T + h_prev @ cell.U_r.T + cell.b_r)
    hbar = tanh(x @ cell.W_h.T + (r * h_prev) @ cell.U_h.T + cell.b_h)
    h = (1.0 - z) * h_prev + z * hbar
    return h, z, r, hbar


def _run_encoder(cell, E_x, ids, mask):
    """Masked left-to-right pass. Padded steps carry the previous state
    forward unchanged, so `final` is the state at each row's true length.

    Also returns the per-step (x, h_prev, z, r, hbar) tuples that backprop
    reads; the pass computes them all anyway.
    """
    b, t_max = ids.shape
    d_h = cell.U_z.shape[0]
    h = np.zeros((b, d_h))
    states = np.zeros((b, t_max, d_h))
    caches = []
    for t in range(t_max):
        x = E_x[ids[:, t]]
        h_hat, z, r, hbar = _gru_step_full(cell, x, h)
        caches.append((x, h, z, r, hbar))
        m = mask[:, t][:, None]
        states[:, t, :] = m * h_hat
        h = m * h_hat + (1.0 - m) * h
    return states, h, caches


def _encode(params: ModelParams, post_ids, post_mask):
    """As encode, but returns (enc_out, (enc caches, enc_g caches or None))."""
    post_ids = np.asarray(post_ids, dtype=np.int64)
    post_mask = np.asarray(post_mask, dtype=np.float64)
    if post_ids.ndim != 2 or post_mask.shape != post_ids.shape:
        raise ValueError(
            f"post_ids and post_mask must be matching 2-d arrays, "
            f"got {post_ids.shape} and {post_mask.shape}")
    lengths = post_mask.sum(axis=1).astype(np.int64)
    if (lengths < 1).any():
        raise ValueError("every post in a batch must have at least one token")
    states, final, caches = _run_encoder(params.enc, params.E_x, post_ids, post_mask)
    global_final, g_caches = None, None
    if params.scheme == "hyb":
        _, global_final, g_caches = _run_encoder(params.enc_g, params.E_x, post_ids, post_mask)
    enc_out = EncodedPost(states=states, mask=post_mask, lengths=lengths,
                          final=final, global_final=global_final)
    return enc_out, (caches, g_caches)


def encode(params: ModelParams, post_ids: np.ndarray, post_mask: np.ndarray) -> EncodedPost:
    """Run the encoder(s) over a padded batch of posts."""
    return _encode(params, post_ids, post_mask)[0]


def encode_post(params: ModelParams, post_ids) -> EncodedPost:
    """Encode a single post given as a plain id sequence."""
    ids = np.asarray(post_ids, dtype=np.int64).reshape(1, -1)
    if ids.size == 0:
        raise ValueError("cannot encode an empty post")
    return encode(params, ids, np.ones_like(ids, dtype=np.float64))


@dataclass
class ContextMemory:
    """What the decoder reads of a batch of encoded posts, for every scheme.

    init (B, d_ctx) is the final encoder state, with the second encoder's
    final state appended under hyb: W_0's input, and glo's context at every
    step. Under loc and hyb, values (B, T, d_ctx) are the vectors the
    context averages (the encoder states, each with the second encoder's
    final state appended under hyb); keys (B, T, d_a) are values @ U_a.T +
    b_a, the part of every score that does not depend on the decoder state;
    mask (B, T) is 1 on real tokens. Under glo those three are None. A
    memory with B == 1 serves any number of decoder rows by broadcasting.
    """

    init: np.ndarray
    values: np.ndarray | None = None
    keys: np.ndarray | None = None
    mask: np.ndarray | None = None


def context_memory(params: ModelParams, enc_out: EncodedPost) -> ContextMemory:
    """Build the context memory of encoded posts once, for every decoder
    step over them."""
    init, values = enc_out.final, enc_out.states
    if params.scheme == "hyb":
        g = enc_out.global_final
        init = np.concatenate([init, g], axis=1)
        values = np.concatenate(
            [values, np.broadcast_to(g[:, None, :], values.shape[:2] + g.shape[1:])], axis=2)
    if params.attn is None:
        return ContextMemory(init)
    keys = values @ params.attn.U_a.T
    keys += params.attn.b_a
    return ContextMemory(init, values, keys, enc_out.mask)


def _score_tanh(params: ModelParams, memory: ContextMemory, s_prev: np.ndarray):
    """tanh(W_a s + U_a h_j + b_a) for every decoder row and position, (B, T, d_a)."""
    return tanh((s_prev @ params.attn.W_a.T)[:, None, :] + memory.keys)


def _context(params: ModelParams, memory: ContextMemory, s_prev: np.ndarray):
    """Context for each row of s_prev. Returns (c, alpha); alpha is None for glo."""
    if memory.keys is None:
        return np.broadcast_to(memory.init, (len(s_prev), memory.init.shape[1])), None
    scores = _score_tanh(params, memory, s_prev) @ params.attn.v_a
    scores = np.where(memory.mask > 0.0, scores, -np.inf)
    alpha = softmax_stable(scores, axis=1)
    # (B, 1, T) @ (B or 1, T, d_ctx): c_b = sum_j alpha_bj h_j
    c = (alpha[:, None, :] @ memory.values)[:, 0, :]
    return c, alpha


def attention_weights(params: ModelParams, enc_out: EncodedPost,
                      s_prev: np.ndarray) -> np.ndarray:
    """Normalized alignment weights (B, T); padded positions get exactly 0.

    The context memory is built from enc_out on every call; enc_out may hold
    one post broadcast over every row of s_prev.
    """
    if params.attn is None:
        raise ValueError(f"scheme {params.scheme!r} has no attention")
    return _context(params, context_memory(params, enc_out), s_prev)[1]


def context_vector(params: ModelParams, enc_out: EncodedPost, s_prev: np.ndarray):
    """Context for one decoder step. Returns (c, alpha); alpha is None for glo.

    c has one row per row of s_prev. The context memory is built from
    enc_out on every call; enc_out may hold one post broadcast over all rows.
    """
    return _context(params, context_memory(params, enc_out), s_prev)


def _start_state(params: ModelParams, memory: ContextMemory) -> np.ndarray:
    return tanh(memory.init @ params.W_0.T)


def decoder_init(params: ModelParams, enc_out: EncodedPost) -> np.ndarray:
    """Start state s_0 = tanh(W_0 c_0). c_0 is the final encoder state, with
    the second encoder's final state appended under hyb."""
    return _start_state(params, context_memory(params, enc_out))


def _decoder_step(params: ModelParams, memory: ContextMemory, s_prev: np.ndarray, y_prev):
    """One decoder step. Returns (s_t, log_probs, cache).

    memory may hold one post broadcast over every row of s_prev. cache holds
    the step's intermediates, which the backward pass reads; the step
    computes all of them anyway.
    """
    y_prev = np.asarray(y_prev, dtype=np.int64)
    y_emb = params.E_y[y_prev]
    c, alpha = _context(params, memory, s_prev)
    u = np.concatenate([y_emb, c @ params.L.T], axis=1)
    s_t, z, r, hbar = _gru_step_full(params.dec, u, s_prev)
    rout = tanh(s_t @ params.W_s.T + y_emb @ params.W_y.T + c @ params.W_c.T + params.b_r)
    logits = rout @ params.W_o.T
    logits += params.b_o
    logp = log_softmax(logits, axis=1)
    cache = {
        "y_emb": y_emb, "c": c, "alpha": alpha, "u": u, "s_prev": s_prev,
        "z": z, "r": r, "hbar": hbar, "s_t": s_t, "rout": rout,
    }
    return s_t, logp, cache


def decoder_step(params: ModelParams, enc_out: EncodedPost,
                 s_prev: np.ndarray, y_prev) -> tuple:
    """Advance the decoder one token. Returns (s_t, probs, alpha).

    probs is the full next-token distribution (B, v_resp); alpha is the
    attention weights used for this step, or None under the glo scheme.
    The context memory is built from enc_out on every call; enc_out may
    hold one post broadcast over every row of s_prev.
    """
    s_t, logp, cache = _decoder_step(params, context_memory(params, enc_out), s_prev, y_prev)
    return s_t, np.exp(logp), cache["alpha"]


def sequence_log_likelihood(params: ModelParams, post_ids, resp_ids) -> float:
    """Log-probability of a response (content ids, no frame tokens).

    The response is scored as y_1 .. y_m followed by the end marker, starting
    from the begin marker, so every candidate the decoders return can be
    re-scored exactly. An empty response has no probability under this
    framing and raises ValueError.
    """
    resp_ids = list(resp_ids)
    if not resp_ids:
        raise ValueError("cannot score an empty response")
    memory = context_memory(params, encode_post(params, post_ids))
    s = _start_state(params, memory)
    targets = resp_ids + [EOS_ID]
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
#   magic "NRMC" | version u32 | scheme u8 | precision u8 (4 or 8)
#   | d_h d_emb d_a d_L v_post v_resp as 6 x u32 | tensor count u32
#   | per tensor: name length u16, utf-8 name, ndim u8, each dim u32,
#     raw IEEE-754 little-endian row-major payload.
# The readout width d_r is not stored; it is recovered from W_s at load.


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.off = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.data):
            raise CheckpointFormatError(
                f"{self.path}: truncated at offset {self.off}: "
                f"needed {n} bytes for {what}, had {len(self.data) - self.off}")
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def save_checkpoint(params: ModelParams, path, precision: int = 8) -> None:
    """Write all tensors to a self-describing binary file."""
    if precision not in (4, 8):
        raise ValueError(f"precision must be 4 or 8 bytes per value, got {precision}")
    d = params.dims
    dtype = "<f4" if precision == 4 else "<f8"
    tensors = params.named_tensors()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<BB", _SCHEME_TO_CODE[params.scheme], precision))
        fh.write(struct.pack("<6I", d.d_h, d.d_emb, d.d_a, d.d_L, d.v_post, d.v_resp))
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint written by save_checkpoint.

    Malformed input raises CheckpointFormatError naming the byte offset of
    the problem. The whole file must be consumed; trailing bytes are an
    error, and so is a NaN or infinite value in any tensor. Tensors stored
    at 4-byte precision come back as float64.
    """
    with open(path, "rb") as fh:
        rd = _Reader(fh.read(), path)

    magic = rd.take(4, "magic")
    if magic != _MAGIC:
        raise CheckpointFormatError(
            f"{path}: bad magic {magic!r} at offset 0, expected {_MAGIC!r}")
    version = rd.u32("version")
    if version != _VERSION:
        raise CheckpointFormatError(
            f"{path}: unsupported version {version} at offset 4, expected {_VERSION}")
    scheme_code = rd.u8("scheme code")
    if scheme_code not in _CODE_TO_SCHEME:
        raise CheckpointFormatError(
            f"{path}: unknown scheme code {scheme_code} at offset 8")
    scheme = _CODE_TO_SCHEME[scheme_code]
    precision = rd.u8("precision")
    if precision not in (4, 8):
        raise CheckpointFormatError(
            f"{path}: bad precision {precision} at offset 9, expected 4 or 8")
    d_h = rd.u32("d_h")
    d_emb = rd.u32("d_emb")
    d_a = rd.u32("d_a")
    d_L = rd.u32("d_L")
    v_post = rd.u32("v_post")
    v_resp = rd.u32("v_resp")
    count = rd.u32("tensor count")

    dtype = np.dtype("<f4" if precision == 4 else "<f8")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_off = rd.off
        name_len = rd.u16("tensor name length")
        name = rd.take(name_len, "tensor name").decode("utf-8", errors="replace")
        if name in tensors:
            raise CheckpointFormatError(
                f"{path}: duplicate tensor {name!r} at offset {name_off}")
        ndim = rd.u8(f"ndim of {name}")
        shape = tuple(rd.u32(f"dim {i} of {name}") for i in range(ndim))
        n_items = int(np.prod(shape)) if shape else 1
        payload_off = rd.off
        payload = rd.take(n_items * precision, f"payload of {name}")
        arr = np.frombuffer(payload, dtype=dtype).astype(np.float64).reshape(shape)
        if not np.isfinite(arr).all():
            first = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise CheckpointFormatError(
                f"{path}: tensor {name!r} holds a non-finite value at offset "
                f"{payload_off + first * precision} (payload at offset {payload_off})")
        tensors[name] = arr
    if rd.off != len(rd.data):
        raise CheckpointFormatError(
            f"{path}: {len(rd.data) - rd.off} trailing byte(s) at offset {rd.off}")

    # d_r lives only in the tensor shapes
    if "W_s" not in tensors:
        raise CheckpointFormatError(f"{path}: missing tensor 'W_s'")
    if tensors["W_s"].ndim != 2:
        raise CheckpointFormatError(f"{path}: tensor 'W_s' must be 2-d")
    d_r = tensors["W_s"].shape[0]
    dims = Dims(d_h=d_h, d_emb=d_emb, d_a=d_a, d_L=d_L, d_r=d_r,
                v_post=v_post, v_resp=v_resp)

    expected = _expected_shapes(scheme, dims)
    missing = sorted(set(expected) - set(tensors))
    extra = sorted(set(tensors) - set(expected))
    if missing:
        raise CheckpointFormatError(f"{path}: missing tensor(s) {', '.join(missing)}")
    if extra:
        raise CheckpointFormatError(f"{path}: unexpected tensor(s) {', '.join(extra)}")
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise CheckpointFormatError(
                f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                f"expected {shape}")
    return _params_from_tensors(scheme, dims, tensors)
