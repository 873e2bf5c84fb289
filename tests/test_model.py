import math

import numpy as np
import pytest

from replygen import Dims, Rng
from replygen.corpus import BOS_ID, EOS_ID
from replygen.model import (
    CheckpointFormatError,
    EncodedPost,
    ModelParams,
    _decoder_step,
    attention_weights,
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

from conftest import TINY, random_post


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
    assert p.d_ctx == 2 * TINY.d_h


def test_init_params_deterministic_and_in_range():
    a = init_params("loc", TINY, Rng(3), low=-0.2, high=0.2)
    b = init_params("loc", TINY, Rng(3), low=-0.2, high=0.2)
    for name, arr in a.named_tensors().items():
        np.testing.assert_array_equal(arr, b.named_tensors()[name])
        assert (arr >= -0.2).all() and (arr < 0.2).all()


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


# --- encoding ------------------------------------------------------------


def test_encode_state_shapes_and_pad_zeroing(make_params, small_batch):
    params = make_params("loc")
    out = encode(params, small_batch.post_ids, small_batch.post_mask)
    b, t = small_batch.post_ids.shape
    assert out.states.shape == (b, t, TINY.d_h)
    assert out.final.shape == (b, TINY.d_h)
    # state rows at padded positions are exactly zero
    for i in range(b):
        for j in range(int(small_batch.post_lengths[i]), t):
            assert (out.states[i, j] == 0.0).all()


def test_encode_final_is_state_at_true_length(make_params, small_batch):
    params = make_params("glo")
    out = encode(params, small_batch.post_ids, small_batch.post_mask)
    for i in range(len(small_batch)):
        n = int(small_batch.post_lengths[i])
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
    alpha = attention_weights(params, enc_out, s)
    for i in range(len(small_batch)):
        np.testing.assert_allclose(alpha[i], ref_attention(params, enc_out, s[i], i),
                                   rtol=1e-12, atol=1e-15)


def test_attention_simplex_and_masked_zeros(make_params, small_batch):
    for scheme in ("loc", "hyb"):
        params = make_params(scheme, seed=6)
        enc_out = encode(params, small_batch.post_ids, small_batch.post_mask)
        s = decoder_init(params, enc_out)
        alpha = attention_weights(params, enc_out, s)
        assert (alpha >= 0.0).all()
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
        assert (alpha[small_batch.post_mask == 0.0] == 0.0).all()


def test_attention_refused_for_glo(make_params, small_batch):
    params = make_params("glo")
    enc_out = encode(params, small_batch.post_ids, small_batch.post_mask)
    with pytest.raises(ValueError):
        attention_weights(params, enc_out, decoder_init(params, enc_out))


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
    s_b, logp_b, cache_b = _decoder_step(params, memory, s, y)
    s_c, logp_c, cache_c = _decoder_step(params, context_memory(params, copied), s, y)
    alpha_b, alpha_c = cache_b["alpha"], cache_c["alpha"]
    np.testing.assert_allclose(s_b, s_c, rtol=0, atol=1e-12)
    np.testing.assert_allclose(logp_b, logp_c, rtol=0, atol=1e-12)
    assert memory.init.shape == (1, params.d_ctx)
    if scheme == "glo":
        assert memory.keys is None and alpha_b is None and alpha_c is None
    else:
        assert memory.keys.shape[0] == 1 and alpha_b.shape == (n, 5)
        np.testing.assert_allclose(alpha_b, alpha_c, rtol=0, atol=1e-12)


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


def test_checkpoint_roundtrip_preserves_scoring(tmp_path, make_params):
    params = make_params("hyb", seed=22)
    before = sequence_log_likelihood(params, [4, 5, 6], [7, 8])
    path = tmp_path / "model.nrm"
    save_checkpoint(params, path)
    after = sequence_log_likelihood(load_checkpoint(path), [4, 5, 6], [7, 8])
    assert before == after  # bitwise at 64-bit storage


def test_checkpoint_float32_storage(tmp_path, make_params):
    params = make_params("glo", seed=23)
    path = tmp_path / "model32.nrm"
    save_checkpoint(params, path, precision=4)
    loaded = load_checkpoint(path)
    for name, arr in params.named_tensors().items():
        got = loaded.named_tensors()[name]
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, arr.astype(np.float32).astype(np.float64))


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
