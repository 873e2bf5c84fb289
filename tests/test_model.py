import hashlib
import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from replygen import Dims, Rng, model
from replygen.corpus import BOS_ID, EOS_ID, PAD_ID
from replygen.model import (
    CheckpointFormatError,
    EncodedPost,
    ModelParams,
    _decoder_step,
    _gru_step,
    _packing,
    _post_memory,
    _start_state,
    context_memory,
    context_vector,
    decoder_init,
    decoder_step,
    encode,
    encode_post,
    gru_step,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sequence_log_likelihood,
)

from conftest import HYB_TENSOR_NAMES, TINY, random_post, sigmoid, tensor_names


# --- parameter construction ----------------------------------------------


def test_init_params_tensor_sets():
    glo = init_params("glo", TINY, Rng(0))
    loc = init_params("loc", TINY, Rng(0))
    hyb = init_params("hyb", TINY, Rng(0))
    assert len(glo.named_tensors()) == 28
    assert len(loc.named_tensors()) == 32
    assert len(hyb.named_tensors()) == 41
    assert glo.attn is None and glo.enc_g is None
    assert loc.attn is not None and loc.enc_g is None
    assert hyb.attn is not None and hyb.enc_g is not None


def test_named_tensors_pinned_order():
    assert len(HYB_TENSOR_NAMES) == 41
    for scheme in ("glo", "loc", "hyb"):
        names = list(init_params(scheme, TINY, Rng(0)).named_tensors())
        assert names == tensor_names(scheme), scheme


def test_init_params_shapes_and_dtype():
    p = init_params("hyb", TINY, Rng(1))
    t = p.named_tensors()
    assert t["E_x"].shape == (TINY.v_post, TINY.d_emb)
    assert t["E_y"].shape == (TINY.v_resp, TINY.d_emb)
    assert t["enc.W_z"].shape == (TINY.d_h, TINY.d_emb)
    assert t["enc.U_z"].shape == (TINY.d_h, TINY.d_h)
    assert t["dec.W_z"].shape == (TINY.d_h, TINY.d_emb + TINY.d_L)
    assert t["L"].shape == (TINY.d_L, 2 * TINY.d_h)       # doubled context
    assert t["W_0"].shape == (TINY.d_h, 2 * TINY.d_h)
    assert t["attn.U_a"].shape == (TINY.d_a, 2 * TINY.d_h)
    assert t["W_o"].shape == (TINY.v_resp, TINY.d_r)
    assert all(a.dtype == np.float64 for a in t.values())


def test_init_params_deterministic_and_in_range():
    a = init_params("loc", TINY, Rng(3), low=-0.2, high=0.2)
    b = init_params("loc", TINY, Rng(3), low=-0.2, high=0.2)
    for name, arr in a.named_tensors().items():
        np.testing.assert_array_equal(arr, b.named_tensors()[name])
        assert (arr >= -0.2).all() and (arr < 0.2).all()


def test_init_params_documented_stream():
    """E_x and W_o must match a literal transcription of the init_params
    docstring, entry by entry, also past the first fill chunk of a
    16800-entry W_o."""
    def mix64(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)

    def fnv1a64(text):
        h = 0xCBF29CE484222325
        for byte in text.encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) % 2**64
        return h

    dims = Dims(d_h=8, d_emb=6, d_a=8, d_L=6, d_r=8, v_post=12, v_resp=2100)
    key = Rng(21).next_u64()
    t = init_params("glo", dims, Rng(21), low=-0.3, high=0.5).named_tensors()
    for name in ("E_x", "W_o"):
        base = mix64(key ^ fnv1a64(name))
        expected = []
        for i in range(t[name].size):
            x = mix64((base + (i + 1) * 0x9E3779B97F4A7C15) % 2**64)
            expected.append(-0.3 + (0.5 - -0.3) * ((x >> 11) * 2.0**-53))
        assert t[name].reshape(-1).tolist() == expected


def test_init_params_same_name_same_values_across_schemes():
    t = {s: init_params(s, TINY, Rng(4)).named_tensors() for s in ("glo", "loc", "hyb")}
    compared = set()
    for a, b in (("glo", "loc"), ("glo", "hyb"), ("loc", "hyb")):
        for name in set(t[a]) & set(t[b]):
            if t[a][name].shape == t[b][name].shape:
                np.testing.assert_array_equal(t[a][name], t[b][name])
                compared.add(name)
    assert {"E_x", "E_y", "enc.U_z", "dec.W_h", "L", "attn.W_a", "W_o"} <= compared


def test_init_params_takes_exactly_one_draw():
    rng, ref = Rng(8), Rng(8)
    init_params("hyb", TINY, rng)
    ref.next_u64()
    assert [rng.next_u64() for _ in range(3)] == [ref.next_u64() for _ in range(3)]


def test_init_params_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        init_params("att", TINY, Rng(0))


# --- GRU cell against a scalar reference ---------------------------------


def ref_gru_step(cell, x_row, h_row):
    """Straight loop transcription of the cell update, one sample."""
    d_h = cell.U_z.shape[0]
    d_in = cell.W_z.shape[1]

    def gate(W, U, b, squash):
        out = []
        for i in range(d_h):
            acc = b[i]
            for j in range(d_in):
                acc += W[i][j] * x_row[j]
            for j in range(d_h):
                acc += U[i][j] * h_row[j]
            out.append(squash(acc))
        return out

    logistic = lambda v: 1.0 / (1.0 + math.exp(-v))
    z = gate(cell.W_z, cell.U_z, cell.b_z, logistic)
    r = gate(cell.W_r, cell.U_r, cell.b_r, logistic)
    hbar = []
    for i in range(d_h):
        acc = cell.b_h[i]
        for j in range(d_in):
            acc += cell.W_h[i][j] * x_row[j]
        for j in range(d_h):
            acc += cell.U_h[i][j] * (r[j] * h_row[j])
        hbar.append(math.tanh(acc))
    return [(1.0 - z[i]) * h_row[i] + z[i] * hbar[i] for i in range(d_h)]


def test_gru_step_matches_scalar_reference():
    params = init_params("glo", TINY, Rng(2), low=-0.7, high=0.7)
    rng = Rng(13)
    x = np.array([[rng.uniform(-1, 1) for _ in range(TINY.d_emb)] for _ in range(3)])
    h = np.array([[rng.uniform(-1, 1) for _ in range(TINY.d_h)] for _ in range(3)])
    out = gru_step(params.enc, x, h)
    for b in range(3):
        ref = ref_gru_step(params.enc, x[b], h[b])
        np.testing.assert_allclose(out[b], ref, rtol=1e-12)


def test_gru_step_zero_update_gate_keeps_state():
    params = init_params("glo", TINY, Rng(4))
    params.enc.b_z[:] = -1e3  # drives z to exactly 0 under the stable sigmoid
    h = np.linspace(-1, 1, TINY.d_h).reshape(1, -1)
    x = np.zeros((1, TINY.d_emb))
    np.testing.assert_array_equal(gru_step(params.enc, x, h), h)


@pytest.mark.parametrize("rows", [8, 32, 500])
def test_gru_step_in_place_has_the_bits_of_the_composed_formula(rows):
    """_gru_step builds each pre-activation in its output array; the gates,
    the candidate and the new state keep the bits of the composed
    expressions, with the sigmoid as conftest.sigmoid."""
    dims = Dims(d_h=32, d_emb=16, d_a=8, d_L=8, d_r=8, v_post=12, v_resp=12)
    cell = init_params("glo", dims, Rng(5), low=-0.5, high=0.5).enc
    gen = np.random.default_rng(rows)
    xw = gen.standard_normal((rows, 3 * dims.d_h))
    h_prev = gen.uniform(-1.0, 1.0, (rows, dims.d_h))
    zr, hbar = np.empty((rows, 2 * dims.d_h)), np.empty((rows, dims.d_h))
    h = _gru_step(cell, xw, h_prev, zr, hbar)

    d_h = dims.d_h
    zr_ref = sigmoid(xw[:, :2 * d_h] + h_prev @ cell.U_zr.T)
    z, r = zr_ref[:, :d_h], zr_ref[:, d_h:]
    hbar_ref = np.tanh(xw[:, 2 * d_h:] + (r * h_prev) @ cell.U_h.T)
    h_ref = (1.0 - z) * h_prev + z * hbar_ref
    assert zr.tobytes() == zr_ref.tobytes()
    assert hbar.tobytes() == hbar_ref.tobytes()
    assert h.tobytes() == h_ref.tobytes()
    assert _gru_step(cell, xw, h_prev).tobytes() == h_ref.tobytes()


# --- encoding ------------------------------------------------------------


def test_encode_state_shapes_and_pad_zeroing(make_params, small_batch):
    params = make_params("loc")
    out = encode(params, small_batch.post_ids, small_batch.post_mask)
    b, t = small_batch.post_ids.shape
    assert out.states.shape == (b, t, TINY.d_h)
    assert out.final.shape == (b, TINY.d_h)
    # state rows at padded positions are exactly zero
    assert (small_batch.post_mask == 0.0).any()
    assert (out.states[small_batch.post_mask == 0.0] == 0.0).all()


def test_encode_final_is_state_at_true_length(make_params, small_batch):
    params = make_params("glo")
    out = encode(params, small_batch.post_ids, small_batch.post_mask)
    for i in range(len(small_batch)):
        n = int(small_batch.post_mask[i].sum())
        np.testing.assert_array_equal(out.final[i], out.states[i, n - 1])


def test_encode_padding_does_not_change_row(make_params):
    """A post encoded alone equals the same row inside a padded batch.

    Not bitwise: the numeric library picks different vectorization paths for
    different batch widths, so the last couple of bits can move.
    """
    params = make_params("loc", seed=8)
    ids = [5, 9, 4]
    alone = encode_post(params, ids)
    padded_ids = np.array([[5, 9, 4, 0, 0], [6, 7, 8, 9, 10]])
    mask = np.array([[1.0, 1, 1, 0, 0], [1, 1, 1, 1, 1]])
    batch_out = encode(params, padded_ids, mask)
    np.testing.assert_allclose(alone.final[0], batch_out.final[0],
                               rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(alone.states[0], batch_out.states[0, :3],
                               rtol=1e-12, atol=1e-15)


def test_encode_hyb_runs_two_encoders(make_params):
    params = make_params("hyb")
    out = encode_post(params, [4, 5, 6])
    assert out.global_final is not None
    assert out.global_final.shape == out.final.shape
    # the two encoders have independent weights, so the states differ
    assert not np.array_equal(out.final, out.global_final)


def test_encode_validates_input(make_params):
    params = make_params("glo")
    with pytest.raises(ValueError):
        encode_post(params, [])
    with pytest.raises(ValueError):
        encode(params, np.zeros((2, 0), dtype=np.int64), np.zeros((2, 0)))
    with pytest.raises(ValueError):  # a row of all-zero mask has no final state
        encode(params, np.array([[4, 5]]), np.array([[0.0, 0.0]]))


@pytest.mark.parametrize("bad", [-1, TINY.v_post], ids=["negative", "past-the-end"])
def test_encode_refuses_an_id_outside_the_vocabulary(bad, make_params):
    """A negative id would read a row counted from the table's end, and an
    id of v_post would run past it: encode, encode_post and the post of
    sequence_log_likelihood refuse both, naming the id."""
    params = make_params("hyb")
    message = f"post id {bad} is outside the vocabulary"
    with pytest.raises(ValueError, match=message):
        encode(params, np.array([[4, 5], [6, bad]]), np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError, match=message):
        encode_post(params, [4, bad])
    with pytest.raises(ValueError, match=message):
        sequence_log_likelihood(params, [bad], [5])


@pytest.mark.parametrize("resp, bad", [([-1], -1), ([5, TINY.v_resp], TINY.v_resp),
                                       ([5, EOS_ID, 6], EOS_ID), ([PAD_ID], PAD_ID),
                                       ([BOS_ID, 5], BOS_ID)],
                         ids=["negative", "past-the-end", "end-marker", "pad", "begin-marker"])
def test_sequence_log_likelihood_refuses_an_id_no_response_holds(resp, bad, make_params):
    """A response is content ids only: the markers frame it, so one inside
    it, like an id outside [0, v_resp), is refused by name."""
    with pytest.raises(ValueError, match=f"response id {bad} is "):
        sequence_log_likelihood(make_params("loc"), [4, 5], resp)


def test_encode_and_scoring_refuse_a_non_integral_id(make_params):
    """A non-integral id is refused by its value, not truncated to the id
    below it: by encode, encode_post and both sides of
    sequence_log_likelihood. An integral float is its id."""
    params = make_params("loc")
    ones = np.ones((1, 2))
    with pytest.raises(ValueError, match="post id 4.7 is not an integer"):
        encode(params, [[4.7, 5.2]], ones)
    with pytest.raises(ValueError, match="post id 5.2 is not an integer"):
        encode_post(params, [4, 5.2])
    with pytest.raises(ValueError, match="post id nan is not an integer"):
        encode_post(params, [4, math.nan])
    with pytest.raises(ValueError, match="post id 4.5 is not an integer"):
        sequence_log_likelihood(params, [4.5], [5])
    with pytest.raises(ValueError, match="response id 5.9 is not an integer"):
        sequence_log_likelihood(params, [4], [5.9])
    np.testing.assert_array_equal(encode(params, [[4.0, 5.0]], ones).states,
                                  encode(params, [[4, 5]], ones).states)
    assert (sequence_log_likelihood(params, [4.0], [5.0])
            == sequence_log_likelihood(params, [4], [5]))


@pytest.mark.parametrize("mask", [[[1, 0.5, 1]], [[1, 0, 1]], [[0, 1, 1]], [[1, 1, 2]]])
def test_encode_refuses_a_mask_that_is_not_0_1_and_left_aligned(mask, make_params):
    """A mask is 1 on a post's tokens and 0 on the padding after them; encode
    neither blends a fractional entry nor carries a state over a hole."""
    with pytest.raises(ValueError, match="post_mask must be 1 on each post's tokens"):
        encode(make_params("loc"), np.array([[4, 5, 6]]), np.array(mask, dtype=float))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(st.integers(1, 9), min_size=1, max_size=12),
                 st.builds(lambda n, length: [length] * n, st.integers(1, 12),
                           st.integers(1, 9))))
@example([1])
@example([4, 4, 4])
def test_packing_steps_tile_the_packed_rows(lengths):
    """_packing's steps tile the packed step-major rows in order, one step
    per position of the longest row, with live-row counts that never grow,
    and step t's slice of ids[order].T[live] holds token t of exactly the
    rows longer than t, in the packed order's prefix."""
    lengths = np.array(lengths)
    order, steps, live = _packing(lengths)
    assert len(steps) == lengths.max()
    counts = [n for n, _ in steps]
    assert counts == sorted(counts, reverse=True)
    end = 0
    for n, rows in steps:
        assert (rows.start, rows.stop, rows.step) == (end, end + n, None)
        end += n
    assert end == lengths.sum()
    t_max = int(lengths.max())
    ids = np.arange(len(lengths) * t_max).reshape(len(lengths), t_max)  # row * t_max + t
    packed = ids[order].T[live]
    for t, (n, rows) in enumerate(steps):
        row, pos = np.divmod(packed[rows], t_max)
        assert (pos == t).all()
        np.testing.assert_array_equal(row, order[:n])
        assert sorted(row) == np.flatnonzero(lengths > t).tolist()


# --- attention and context -----------------------------------------------


def ref_attention(params, enc_out, s_row, row):
    """Scalar-loop alignment for one batch row (loc scheme)."""
    a = params.attn
    d_a = a.v_a.shape[0]
    scores = []
    for t in range(enc_out.states.shape[1]):
        if enc_out.mask[row, t] == 0.0:
            scores.append(-math.inf)
            continue
        s = 0.0
        for k in range(d_a):
            acc = a.b_a[k]
            for j in range(a.W_a.shape[1]):
                acc += a.W_a[k][j] * s_row[j]
            for j in range(a.U_a.shape[1]):
                acc += a.U_a[k][j] * enc_out.states[row, t, j]
            s += a.v_a[k] * math.tanh(acc)
        scores.append(s)
    m = max(scores)
    exps = [math.exp(v - m) if v != -math.inf else 0.0 for v in scores]
    z = sum(exps)
    return [e / z for e in exps]


def test_attention_matches_scalar_reference(make_params, small_batch):
    params = make_params("loc", seed=5, low=-0.6, high=0.6)
    enc_out = encode(params, small_batch.post_ids, small_batch.post_mask)
    rng = Rng(20)
    s = np.array([[rng.uniform(-1, 1) for _ in range(TINY.d_h)]
                  for _ in range(len(small_batch))])
    _, alpha = context_vector(params, enc_out, s)
    for i in range(len(small_batch)):
        np.testing.assert_allclose(alpha[i], ref_attention(params, enc_out, s[i], i),
                                   rtol=1e-12, atol=1e-15)


def test_attention_simplex_and_masked_zeros(make_params, small_batch):
    for scheme in ("loc", "hyb"):
        params = make_params(scheme, seed=6)
        enc_out = encode(params, small_batch.post_ids, small_batch.post_mask)
        s = decoder_init(params, enc_out)
        _, alpha = context_vector(params, enc_out, s)
        assert (alpha >= 0.0).all()
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
        assert (alpha[small_batch.post_mask == 0.0] == 0.0).all()


def test_attention_alpha_is_none_for_glo(make_params, small_batch):
    params = make_params("glo")
    enc_out = encode(params, small_batch.post_ids, small_batch.post_mask)
    _, alpha = context_vector(params, enc_out, decoder_init(params, enc_out))
    assert alpha is None


def test_single_token_post_reduces_to_global_context():
    """With one post token the attention average has nothing to weigh: the
    loc context must equal the glo context bitwise, and the hyb context must
    equal its two final states, also bitwise."""
    glo = init_params("glo", TINY, Rng(9))
    loc = init_params("loc", TINY, Rng(9))  # same draws for shared tensors
    np.testing.assert_array_equal(glo.E_x, loc.E_x)
    for name in ("W_z", "U_z", "W_r", "U_r", "W_h", "U_h", "b_z", "b_r", "b_h"):
        np.testing.assert_array_equal(getattr(glo.enc, name), getattr(loc.enc, name))

    rng = Rng(31)
    for _ in range(10):
        ids = [4 + rng.randrange(8)]
        g_out = encode_post(glo, ids)
        l_out = encode_post(loc, ids)
        s = decoder_init(loc, l_out)
        c_glo, _ = context_vector(glo, g_out, decoder_init(glo, g_out))
        c_loc, alpha = context_vector(loc, l_out, s)
        assert alpha[0, 0] == 1.0
        np.testing.assert_array_equal(c_loc, c_glo)

    hyb = init_params("hyb", TINY, Rng(9))
    for _ in range(10):
        ids = [4 + rng.randrange(8)]
        out = encode_post(hyb, ids)
        c, _ = context_vector(hyb, out, decoder_init(hyb, out))
        np.testing.assert_array_equal(
            c, np.concatenate([out.final, out.global_final], axis=1))


@pytest.mark.parametrize("scheme", ["glo", "loc", "hyb"])
def test_broadcast_memory_matches_copied_rows(scheme, make_params):
    """One post's encoding and memory serve n decoder rows by broadcasting,
    as the decoders use them, with the results of an n-row copy."""
    params = make_params(scheme, seed=8, low=-0.5, high=0.5)
    rng = Rng(32)
    one = encode_post(params, [4, 9, 6, 11, 5])
    memory = context_memory(params, one)
    n = 5
    copied = EncodedPost(
        states=np.repeat(one.states, n, axis=0), mask=np.repeat(one.mask, n, axis=0),
        lengths=np.repeat(one.lengths, n), final=np.repeat(one.final, n, axis=0),
        global_final=None if one.global_final is None
        else np.repeat(one.global_final, n, axis=0))
    s = np.array([[rng.uniform(-1, 1) for _ in range(TINY.d_h)] for _ in range(n)])
    y = np.array([4 + rng.randrange(8) for _ in range(n)])
    s_b, logp_b, alpha_b = _decoder_step(params, memory, s, y)
    s_c, logp_c, alpha_c = _decoder_step(params, context_memory(params, copied), s, y)
    np.testing.assert_allclose(s_b, s_c, rtol=0, atol=1e-12)
    np.testing.assert_allclose(logp_b, logp_c, rtol=0, atol=1e-12)
    assert memory.init.shape == (1, params.W_0.shape[1])
    if scheme == "glo":
        assert memory.keys is None and alpha_b is None and alpha_c is None
    else:
        assert memory.keys.shape[0] == 1 and alpha_b.shape == (n, 5)
        np.testing.assert_allclose(alpha_b, alpha_c, rtol=0, atol=1e-12)


@pytest.mark.parametrize("scheme", ["glo", "loc", "hyb"])
def test_glo_steps_read_their_context_products_from_the_memory(scheme, make_params):
    """Under glo the memory forms L c, its decoder-input product and W_c c
    once, and a decoder step only reads them: with L and W_c overwritten by
    NaN after the memory is built, the step's log-probabilities are bitwise
    those from before. Under loc and hyb every step forms its context's
    products, so they turn NaN."""
    params = make_params(scheme, seed=5, low=-0.5, high=0.5)
    one = encode_post(params, [4, 9, 6, 11])
    memory = context_memory(params, one)
    s = np.repeat(decoder_init(params, one), 3, axis=0)
    y = np.array([BOS_ID, 5, 7])
    _, before, _ = _decoder_step(params, memory, s, y)
    params.L[...] = np.nan
    params.W_c[...] = np.nan
    _, after, _ = _decoder_step(params, memory, s, y)
    if scheme == "glo":
        assert np.isfinite(after).all()
        np.testing.assert_array_equal(after, before)
    else:
        assert np.isnan(after).all()


@pytest.mark.parametrize("scheme", ["glo", "loc", "hyb"])
def test_decoder_steps_read_every_context_product_from_the_post_memory(scheme, make_params):
    """The decoders' memory of a post holds every product of the context a
    step reads: under glo the context's, under loc and hyb the attended
    states' and g's. With L and W_c overwritten by NaN after it is built,
    a step's log-probabilities stay finite and bitwise those from before."""
    params = make_params(scheme, seed=5, low=-0.5, high=0.5)
    memory = _post_memory(params, [4, 9, 6, 11])
    s = np.repeat(_start_state(params, memory), 3, axis=0)
    y = np.array([BOS_ID, 5, 7])
    _, before, _ = _decoder_step(params, memory, s, y)
    params.L[...] = np.nan
    params.W_c[...] = np.nan
    _, after, _ = _decoder_step(params, memory, s, y)
    assert np.isfinite(after).all()
    np.testing.assert_array_equal(after, before)


@pytest.mark.parametrize("scheme", ["loc", "hyb"])
def test_projected_step_matches_the_context_vector_step(scheme, make_params):
    """A step on the decoders' memory (alpha @ the projected states) agrees
    with the public decoder_step, which forms the context vector and its
    products, up to roundoff, with bitwise the same attention weights."""
    params = make_params(scheme, seed=6, low=-0.5, high=0.5)
    post = [4, 9, 6, 11, 5, 7]
    enc_out = encode_post(params, post)
    memory = _post_memory(params, post)
    rng = Rng(33)
    s = np.array([[rng.uniform(-1, 1) for _ in range(TINY.d_h)] for _ in range(4)])
    y = np.array([BOS_ID, 5, 7, 9])
    for _ in range(3):
        s_p, logp, alpha_p = _decoder_step(params, memory, s, y)
        s_c, probs, alpha_c = decoder_step(params, enc_out, s, y)
        np.testing.assert_array_equal(alpha_p, alpha_c)
        np.testing.assert_allclose(s_p, s_c, rtol=0, atol=1e-12)
        np.testing.assert_allclose(logp, np.log(probs), rtol=0, atol=1e-12)
        s, y = s_c, probs.argmax(axis=1)


# --- decoder -------------------------------------------------------------


def test_decoder_init_shape_and_bounds(make_params, small_batch):
    for scheme in ("glo", "loc", "hyb"):
        params = make_params(scheme)
        enc_out = encode(params, small_batch.post_ids, small_batch.post_mask)
        s0 = decoder_init(params, enc_out)
        assert s0.shape == (len(small_batch), TINY.d_h)
        assert (np.abs(s0) < 1.0).all()  # tanh output


def test_decoder_step_probability_rows(make_params, small_batch):
    for scheme in ("glo", "loc", "hyb"):
        params = make_params(scheme, seed=7)
        enc_out = encode(params, small_batch.post_ids, small_batch.post_mask)
        s = decoder_init(params, enc_out)
        y = np.full(len(small_batch), BOS_ID)
        for _ in range(3):
            s, probs, alpha = decoder_step(params, enc_out, s, y)
            assert probs.shape == (len(small_batch), TINY.v_resp)
            assert (probs > 0.0).all()
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
            if scheme == "glo":
                assert alpha is None
            else:
                np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-9)
            y = probs.argmax(axis=1)


@pytest.mark.parametrize("bad, message", [(-1, "-1 is outside"),
                                          (TINY.v_resp, f"{TINY.v_resp} is outside"),
                                          (5.5, "5.5 is not an integer")],
                         ids=["negative", "past-the-end", "non-integral"])
def test_decoder_step_refuses_a_previous_id_outside_the_vocabulary(bad, message, make_params):
    """y_prev picks rows of the output embeddings: -1 would read the last
    row, v_resp run past the table and 5.5 be truncated."""
    params = make_params("loc")
    enc_out = encode_post(params, [4, 5])
    s = decoder_init(params, enc_out)
    with pytest.raises(ValueError, match=f"response id {message}"):
        decoder_step(params, enc_out, s, np.array([bad]))


def test_sequence_log_likelihood_matches_stepwise(make_params):
    """Scoring must agree with composing public decoder steps by hand."""
    for scheme in ("glo", "loc", "hyb"):
        params = make_params(scheme, seed=12)
        post, resp = [5, 6, 7], [8, 9]
        total = sequence_log_likelihood(params, post, resp)

        enc_out = encode_post(params, post)
        s = decoder_init(params, enc_out)
        manual = 0.0
        prev = BOS_ID
        for target in resp + [EOS_ID]:
            s, probs, _ = decoder_step(params, enc_out, s, np.array([prev]))
            manual += math.log(probs[0, target])
            prev = target
        assert abs(total - manual) < 1e-12


def test_sequence_log_likelihood_rejects_empty(make_params):
    with pytest.raises(ValueError):
        sequence_log_likelihood(make_params("glo"), [4, 5], [])


def test_sequence_log_likelihood_is_negative(make_params):
    assert sequence_log_likelihood(make_params("loc"), [4], [5]) < 0.0


# --- checkpoints ----------------------------------------------------------


def _assert_params_equal(a: ModelParams, b: ModelParams):
    assert a.scheme == b.scheme
    assert a.dims == b.dims
    at, bt = a.named_tensors(), b.named_tensors()
    assert list(at) == list(bt)
    for name in at:
        np.testing.assert_array_equal(at[name], bt[name])
        assert bt[name].dtype == np.float64


@pytest.mark.parametrize("scheme", ["glo", "loc", "hyb"])
def test_checkpoint_roundtrip_bitwise(scheme, tmp_path, make_params):
    params = make_params(scheme, seed=21)
    path = tmp_path / "model.nrm"
    save_checkpoint(params, path)
    _assert_params_equal(params, load_checkpoint(path))


def _stored_tensor_names(path):
    """The tensor names of a checkpoint, in file order, read by the layout
    documented in model.py."""
    data = path.read_bytes()
    precision = data[9]
    (count,) = struct.unpack_from("<I", data, 34)  # after the 34-byte header
    off, names = 38, []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, off)
        names.append(data[off + 2:off + 2 + name_len].decode("utf-8"))
        off += 2 + name_len
        ndim = data[off]
        shape = struct.unpack_from(f"<{ndim}I", data, off + 1)
        off += 1 + 4 * ndim + math.prod(shape) * precision
    assert off == len(data)
    return names


@pytest.mark.parametrize("precision", [4, 8])
@pytest.mark.parametrize("scheme", ["glo", "loc", "hyb"])
def test_checkpoint_stores_tensors_in_pinned_order(scheme, precision, tmp_path, make_params):
    path = tmp_path / f"{scheme}.nrm"
    save_checkpoint(make_params(scheme), path, precision=precision)
    assert _stored_tensor_names(path) == tensor_names(scheme)


def test_checkpoint_roundtrip_preserves_scoring(tmp_path, make_params):
    params = make_params("hyb", seed=22)
    before = sequence_log_likelihood(params, [4, 5, 6], [7, 8])
    path = tmp_path / "model.nrm"
    save_checkpoint(params, path)
    after = sequence_log_likelihood(load_checkpoint(path), [4, 5, 6], [7, 8])
    assert before == after  # bitwise at 64-bit storage


# SHA-256 of save_checkpoint(init_params(scheme, TINY, Rng(7)), precision=8),
# as written before the GRU gates were stacked.
TINY_CHECKPOINT_SHA256 = {
    "glo": "0a4dc26627a2e9a63b453f3aa9e4c490e1d1ad2773c46cdf50167450813e4ec6",
    "loc": "8a0cb2102f8f28838c349e534c56f721ec91b7a25756cc024eab2bea36751bcd",
    "hyb": "d1f7ea624562c2109f287d6b9fd6b5eac29cacec73c5eabc4f005e0b08fb106e",
}


@pytest.mark.parametrize("scheme", ["glo", "loc", "hyb"])
def test_checkpoint_bytes_are_pinned(scheme, tmp_path):
    """The stacked gates change neither the tensor names, their order, nor
    the values init_params draws for each name."""
    path = tmp_path / "model.nrm"
    save_checkpoint(init_params(scheme, TINY, Rng(7)), path, precision=8)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TINY_CHECKPOINT_SHA256[scheme]


def test_checkpoint_float32_storage(tmp_path, make_params):
    params = make_params("glo", seed=23)
    path = tmp_path / "model32.nrm"
    save_checkpoint(params, path, precision=4)
    loaded = load_checkpoint(path)
    for name, arr in params.named_tensors().items():
        got = loaded.named_tensors()[name]
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, arr.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("precision", [4, 8])
def test_checkpoint_tensors_own_writable_float64(precision, tmp_path, make_params):
    """Every loaded tensor owns its memory, but a GRU gate and W_o: a gate
    is a view of its cell's stacked array, and W_o the transposed view of a
    C-contiguous (d_r, v_resp) array, each of which owns its memory."""
    path = tmp_path / "model.nrm"
    save_checkpoint(make_params("hyb", seed=25), path, precision=precision)
    for name, arr in load_checkpoint(path).named_tensors().items():
        assert arr.dtype == np.float64, name
        assert (arr.flags.c_contiguous or name == "W_o") and arr.flags.writeable, name
        cell, _, field = name.rpartition(".")
        gate = cell in ("enc", "enc_g", "dec") and field != "U_h"
        owner = arr.base if gate or name == "W_o" else arr
        assert owner.flags.owndata and owner.flags.c_contiguous, name


def test_checkpoint_rejects_bad_magic(tmp_path, make_params):
    path = tmp_path / "model.nrm"
    save_checkpoint(make_params("glo"), path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path, make_params):
    path = tmp_path / "model.nrm"
    save_checkpoint(make_params("loc"), path)
    data = path.read_bytes()
    for cut in (3, 10, len(data) // 2, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)


def test_checkpoint_truncation_names_offsets(tmp_path, make_params):
    path = tmp_path / "model.nrm"
    save_checkpoint(make_params("glo"), path)
    data = path.read_bytes()
    n = TINY.v_resp * 8  # b_o is the last tensor
    path.write_bytes(data[:-1])
    with pytest.raises(CheckpointFormatError, match=rf"truncated at offset {len(data) - n}: "
                       rf"needed {n} bytes for payload of b_o, had {n - 1}$"):
        load_checkpoint(path)
    # E_x's first dim sits at byte 44; a huge one is refused before any allocation
    path.write_bytes(data[:44] + b"\xff\xff\xff\xff" + data[48:])
    with pytest.raises(CheckpointFormatError,
                       match=r"truncated at offset 52: needed \d+ bytes for payload of E_x"):
        load_checkpoint(path)


def _record_at(data: bytes, name: str) -> int:
    """Offset of the record of tensor `name`: its u16 name length."""
    key = struct.pack("<H", len(name)) + name.encode()
    assert data.count(key) == 1, name
    return data.find(key)


def _rename(data: bytes, name: str, new: str) -> bytes:
    off = _record_at(data, name) + 2
    assert len(new) == len(name)
    return data[:off] + new.encode() + data[off + len(name):]


def _patch(data: bytes, fmt: str, off: int, *values) -> bytes:
    return data[:off] + struct.pack(fmt, *values) + data[off + struct.calcsize(fmt):]


_COUNT_OFF = 34  # tensor count u32, after magic, version, scheme, precision, 6 sizes


@pytest.mark.parametrize("edit, message", [
    (lambda d: _patch(d, "<I", 4, 2), r"unsupported version 2 at offset 4, expected 1"),
    (lambda d: _patch(d, "<B", 8, 7), r"unknown scheme code 7 at offset 8"),
    (lambda d: _patch(d, "<B", 9, 3), r"bad precision 3 at offset 9, expected 4 or 8"),
    (lambda d: _rename(d, "W_s", "W_t"), r"missing tensor 'W_s'"),
])
def test_checkpoint_header_and_table_errors_name_their_field(edit, message, tmp_path,
                                                            make_params):
    path = tmp_path / "model.nrm"
    save_checkpoint(make_params("glo"), path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(CheckpointFormatError, match=rf"^{re.escape(str(path))}: {message}$"):
        load_checkpoint(path)


def test_checkpoint_rejects_duplicate_tensor_at_its_record(tmp_path, make_params):
    path = tmp_path / "model.nrm"
    save_checkpoint(make_params("glo"), path)
    data = path.read_bytes()
    path.write_bytes(_rename(data, "E_y", "E_x"))
    with pytest.raises(CheckpointFormatError,
                       match=rf"duplicate tensor 'E_x' at offset {_record_at(data, 'E_y')}$"):
        load_checkpoint(path)


def test_checkpoint_rejects_missing_and_unexpected_tensors(tmp_path, make_params):
    """A record dropped from the end, or one added after it, with the
    tensor count kept in step so the table itself reads cleanly."""
    path = tmp_path / "model.nrm"
    save_checkpoint(make_params("glo"), path)
    data = path.read_bytes()
    count = struct.unpack_from("<I", data, _COUNT_OFF)[0]
    last = _record_at(data, "b_o")
    path.write_bytes(_patch(data[:last], "<I", _COUNT_OFF, count - 1))
    with pytest.raises(CheckpointFormatError, match=r"missing tensor\(s\) b_o$"):
        load_checkpoint(path)
    extra = _rename(data[last:], "b_o", "b_x")
    path.write_bytes(_patch(data, "<I", _COUNT_OFF, count + 1) + extra)
    with pytest.raises(CheckpointFormatError, match=r"unexpected tensor\(s\) b_x$"):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_shape(tmp_path, make_params):
    """E_x stored as (d_emb, v_post): the payload size still fits."""
    path = tmp_path / "model.nrm"
    save_checkpoint(make_params("glo"), path)
    dims = _record_at(path.read_bytes(), "E_x") + 2 + 3 + 1
    path.write_bytes(_patch(path.read_bytes(), "<2I", dims, TINY.d_emb, TINY.v_post))
    with pytest.raises(CheckpointFormatError,
                       match=rf"tensor 'E_x' has shape \({TINY.d_emb}, {TINY.v_post}\), "
                             rf"expected \({TINY.v_post}, {TINY.d_emb}\)$"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_w_s_that_is_not_2d(tmp_path, make_params):
    """W_s stored as (d_r, d_h, 1): one more dim, the same payload."""
    path = tmp_path / "model.nrm"
    save_checkpoint(make_params("glo"), path)
    data = path.read_bytes()
    ndim = _record_at(data, "W_s") + 2 + 3
    path.write_bytes(data[:ndim] + struct.pack("<B3I", 3, TINY.d_r, TINY.d_h, 1)
                     + data[ndim + 1 + 8:])
    with pytest.raises(CheckpointFormatError, match=r"tensor 'W_s' must be 2-d$"):
        load_checkpoint(path)


def test_checkpoint_load_holds_little_more_than_the_model(tmp_path):
    """Payloads are read straight into their arrays; reading the whole file
    first would peak at about twice the parameters' bytes."""
    dims = Dims(d_h=64, d_emb=32, d_a=64, d_L=32, d_r=64, v_post=3000, v_resp=3000)
    params = init_params("hyb", dims, Rng(1))
    path = tmp_path / "model.nrm"
    save_checkpoint(params, path, precision=8)
    nbytes = sum(arr.nbytes for arr in params.named_tensors().values())
    tracemalloc.start()
    try:
        load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * nbytes


def test_checkpoint_rejects_trailing_garbage(tmp_path, make_params):
    path = tmp_path / "model.nrm"
    save_checkpoint(make_params("glo"), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_precision(tmp_path, make_params):
    with pytest.raises(ValueError):
        save_checkpoint(make_params("glo"), tmp_path / "x.nrm", precision=2)


@pytest.mark.parametrize("value, precision", [(np.nan, 8), (-np.inf, 4)])
def test_checkpoint_rejects_non_finite_tensor(value, precision, tmp_path, make_params):
    params = make_params("loc", seed=24)
    params.W_s[1, 2] = value
    path = tmp_path / "model.nrm"
    save_checkpoint(params, path, precision=precision)
    data = path.read_bytes()
    offset = data.find(np.array([value], dtype=f"<f{precision}").tobytes())
    payload = offset - (1 * TINY.d_h + 2) * precision
    with pytest.raises(CheckpointFormatError,
                       match=f"'W_s' holds a non-finite value at offset {offset} "
                             rf"\(payload at offset {payload}\)"):
        load_checkpoint(path)


@pytest.mark.parametrize("io_block", [None, 3 * TINY.d_r], ids=["one-block", "3-row-blocks"])
@pytest.mark.parametrize("value, precision", [(np.nan, 8), (-np.inf, 4)])
def test_checkpoint_reports_a_non_finite_w_o_entry_at_its_offset(value, precision, io_block,
                                                                  tmp_path, make_params,
                                                                  monkeypatch):
    """W_o is written and read in row blocks of its logical (v_resp, d_r)
    shape: entry (5, 3) sits at its row-major place in the payload, and the
    loader names that byte, in its block or across blocks of 3 rows."""
    if io_block is not None:
        monkeypatch.setattr(model, "_IO_BLOCK", io_block)
    params = make_params("glo", seed=24)
    params.W_o[5, 3] = value
    path = tmp_path / "model.nrm"
    save_checkpoint(params, path, precision=precision)
    data = path.read_bytes()
    payload = _record_at(data, "W_o") + 2 + len("W_o") + 1 + 2 * 4
    offset = payload + (5 * TINY.d_r + 3) * precision
    assert data[offset:offset + precision] == np.array([value], f"<f{precision}").tobytes()
    with pytest.raises(CheckpointFormatError,
                       match=f"'W_o' holds a non-finite value at offset {offset} "
                             rf"\(payload at offset {payload}\)$"):
        load_checkpoint(path)


def test_checkpoint_truncated_in_w_o_names_its_payload(tmp_path, make_params):
    path = tmp_path / "model.nrm"
    save_checkpoint(make_params("glo"), path)
    data = path.read_bytes()
    payload = _record_at(data, "W_o") + 2 + len("W_o") + 1 + 2 * 4
    n = TINY.v_resp * TINY.d_r * 8
    path.write_bytes(data[:payload + n - 5])
    with pytest.raises(CheckpointFormatError, match=rf"truncated at offset {payload}: "
                       rf"needed {n} bytes for payload of W_o, had {n - 5}$"):
        load_checkpoint(path)


@pytest.mark.parametrize("precision", [4, 8])
def test_checkpoint_save_holds_no_tensor_sized_copy(precision, tmp_path):
    """A C-contiguous tensor at 8-byte precision is written from its own
    memory, and W_o's transposed storage and every float32 payload in row
    blocks: save_checkpoint allocates less than a tenth of W_o's bytes."""
    dims = Dims(d_h=8, d_emb=6, d_a=8, d_L=6, d_r=64, v_post=12, v_resp=8000)
    params = init_params("loc", dims, Rng(4))
    path = tmp_path / "model.nrm"
    save_checkpoint(params, path, precision=precision)  # warm up lazy set-up
    tracemalloc.start()
    try:
        save_checkpoint(params, path, precision=precision)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * params.W_o.nbytes
    loaded = load_checkpoint(path).named_tensors()
    for name, arr in params.named_tensors().items():
        np.testing.assert_array_equal(loaded[name], arr.astype(f"<f{precision}"), err_msg=name)


def test_checkpoint_rejects_signaling_nan_without_a_warning(tmp_path, make_params):
    """A float32 signaling NaN is refused before the cast to float64, which
    it would trip with an invalid-value warning."""
    params = make_params("loc", seed=24)
    params.W_s[1, 2] = 0.5
    path = tmp_path / "model.nrm"
    save_checkpoint(params, path, precision=4)
    data = path.read_bytes()
    marker = np.array([0.5], dtype="<f4").tobytes()
    assert data.count(marker) == 1
    path.write_bytes(data.replace(marker, bytes.fromhex("0100807f")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CheckpointFormatError, match="'W_s' holds a non-finite value"):
            load_checkpoint(path)
