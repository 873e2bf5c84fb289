"""End-to-end subcommand tests driving replygen.cli.main in-process."""

import dataclasses
import logging
import os
import struct
import warnings

import pytest

from replygen import Dims, Rng
from replygen.cli import _DIM_FLAGS, main
from replygen.corpus import EOS_ID, Vocabulary, encode
from replygen.decoding import beam_search, beam_search_posts
from replygen.model import _HEADER, _STORED_DIMS, save_checkpoint
from replygen.training import init_params


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def table(out):
    """Parse tab-separated stdout lines into a {first_field: rest} dict."""
    rows = {}
    for line in out.strip().splitlines():
        parts = line.split("\t")
        rows.setdefault(parts[0], []).append(parts[1:])
    return rows


RAW_PAIRS = """\
how are you today\ti am doing fine thanks
what is for lunch\tmaybe some hot soup
what is for lunch\tok
any plans tonight\tvisit https://spam.example now
any plans tonight\twatching a film later
did you see that game\tyes the ending was wild
did you see that game\tlol
where should we meet\tby the main gate
where should we meet\tbuy cheap pills online
how was the trip\tlong but worth it
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "raw.tsv").write_text(RAW_PAIRS, encoding="utf-8")
    return tmp_path


def prep_corpus(workdir, capsys):
    """clean + both vocabularies; returns the common path arguments."""
    clean = workdir / "clean.tsv"
    rc, out, err = run(capsys, "clean", "--pairs", str(workdir / "raw.tsv"),
                       "--out", str(clean), "--quiet")
    assert rc == 0, err
    for side in ("post", "response"):
        rc, _, err = run(capsys, "build-vocab", "--pairs", str(clean),
                         "--side", side, "--out", str(workdir / f"{side}.vocab"),
                         "--quiet")
        assert rc == 0, err
    return ["--pairs", str(clean),
            "--post-vocab", str(workdir / "post.vocab"),
            "--resp-vocab", str(workdir / "response.vocab")]


def train_tiny(workdir, capsys, scheme="glo", seed="0", extra=()):
    args = prep_corpus(workdir, capsys)
    ckpt = workdir / f"{scheme}-{seed}.ckpt"
    rc, out, err = run(capsys, "train", *args,
                       "--scheme", scheme, "--out", str(ckpt),
                       "--log", str(workdir / "train.log"),
                       "--d-h", "8", "--d-emb", "6", "--d-a", "8",
                       "--d-l", "6", "--d-r", "8",
                       "--epochs", "3", "--lr", "0.5", "--batch-size", "4",
                       "--seed", seed, "--quiet", *extra)
    assert rc == 0, err
    return ckpt, args, out


# --- corpus commands ---------------------------------------------------------


def test_clean_reports_and_writes(workdir, capsys):
    out_path = workdir / "clean.tsv"
    rc, out, err = run(capsys, "clean", "--pairs", str(workdir / "raw.tsv"),
                       "--out", str(out_path), "--quiet")
    assert rc == 0, err
    rows = table(out)
    kept = int(rows["kept"][0][0])
    assert kept == 7
    assert out_path.read_text(encoding="utf-8").count("\n") == kept
    by_rule = {line.split("\t")[0]: int(line.split("\t")[1])
               for line in out.strip().splitlines() if line.startswith("removed_")}
    assert by_rule["removed_trivial"] == 2   # "ok" and "lol"
    assert by_rule["removed_ad_url"] == 1


def test_build_vocab_reports_size_and_coverage(workdir, capsys):
    rc, out, err = run(capsys, "build-vocab", "--pairs", str(workdir / "raw.tsv"),
                       "--side", "post", "--out", str(workdir / "p.vocab"),
                       "--quiet")
    assert rc == 0, err
    rows = table(out)
    assert int(rows["size"][0][0]) > 4
    assert float(rows["coverage"][0][0]) == 1.0


def test_build_vocab_cap_changes_coverage(workdir, capsys):
    rc, out, _ = run(capsys, "build-vocab", "--pairs", str(workdir / "raw.tsv"),
                     "--side", "response", "--out", str(workdir / "r.vocab"),
                     "--cap", "3", "--quiet")
    assert rc == 0
    assert float(table(out)["coverage"][0][0]) < 1.0


def test_build_vocab_keeps_reserved_spellings_at_their_ids(tmp_path, capsys):
    """A pairs file whose text holds a reserved spelling builds a vocabulary
    in which that spelling appears once, at its reserved id."""
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("hi <unk> there\tfine thanks\nthere <s>\tok </s>\n", encoding="utf-8")
    out_path = tmp_path / "p.vocab"
    rc, out, err = run(capsys, "build-vocab", "--pairs", str(pairs), "--side", "post",
                       "--out", str(out_path), "--quiet")
    assert rc == 0, err
    rows = table(out)
    assert rows["size"] == [["6"]]
    assert float(rows["coverage"][0][0]) == 3 / 5
    assert Vocabulary.load(out_path).tokens == ["<pad>", "<s>", "</s>", "<unk>", "there", "hi"]


# --- training and evaluation ---------------------------------------------------


def test_train_writes_checkpoint_and_log(workdir, capsys):
    ckpt, args, out = train_tiny(workdir, capsys)
    assert ckpt.exists()
    rows = table(out)
    assert rows["epochs"][0][0] == "3"
    assert float(rows["final_perplexity"][0][0]) > 1.0
    log_lines = (workdir / "train.log").read_text(encoding="utf-8").strip().splitlines()
    assert len(log_lines) == 3
    epoch, nll, ppl = log_lines[-1].split("\t")
    assert epoch == "3" and float(nll) > 0 and float(ppl) > 1.0


def test_train_is_seed_deterministic(workdir, capsys):
    a, _, _ = train_tiny(workdir, capsys, seed="5")
    b_path = workdir / "again.ckpt"
    args = ["--pairs", str(workdir / "clean.tsv"),
            "--post-vocab", str(workdir / "post.vocab"),
            "--resp-vocab", str(workdir / "response.vocab")]
    rc, _, err = run(capsys, "train", *args, "--scheme", "glo",
                     "--out", str(b_path), "--d-h", "8", "--d-emb", "6",
                     "--d-a", "8", "--d-l", "6", "--d-r", "8",
                     "--epochs", "3", "--lr", "0.5", "--batch-size", "4",
                     "--seed", "5", "--quiet")
    assert rc == 0, err
    assert a.read_bytes() == b_path.read_bytes()

    c_path = workdir / "other-seed.ckpt"
    rc, _, _ = run(capsys, "train", *args, "--scheme", "glo",
                   "--out", str(c_path), "--d-h", "8", "--d-emb", "6",
                   "--d-a", "8", "--d-l", "6", "--d-r", "8",
                   "--epochs", "3", "--lr", "0.5", "--batch-size", "4",
                   "--seed", "6", "--quiet")
    assert rc == 0
    assert a.read_bytes() != c_path.read_bytes()


def test_perplexity_command(workdir, capsys):
    ckpt, args, _ = train_tiny(workdir, capsys)
    rc, out, err = run(capsys, "perplexity", "--checkpoint", str(ckpt),
                       *args, "--quiet")
    assert rc == 0, err
    rows = table(out)
    assert float(rows["perplexity"][0][0]) > 1.0


@pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--lr", "inf"),
                                         ("--clip-norm", "nan"), ("--clip-norm", "inf")])
def test_train_rejects_non_finite_knobs(flag, value, workdir, capsys):
    args = prep_corpus(workdir, capsys)
    ckpt = workdir / "model.ckpt"
    rc, out, err = run(capsys, "train", *args, "--scheme", "glo", "--out", str(ckpt),
                       "--epochs", "1", flag, value, "--quiet")
    assert rc == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {flag[2:]} must be a finite number")
    assert not ckpt.exists()


def test_perplexity_rejects_max_response_len_below_one(workdir, capsys):
    ckpt, args, _ = train_tiny(workdir, capsys)
    for value in ("0", "-1"):
        rc, out, err = run(capsys, "perplexity", "--checkpoint", str(ckpt), *args,
                           "--max-response-len", value, "--quiet")
        assert rc == 1 and out == ""
        assert err.splitlines() == [f"error: max-response-len must be >= 1, got {value}"]


def test_empty_response_pairs_are_dropped(workdir, capsys, caplog):
    """A `post<TAB>` line loads with an empty response; train and perplexity
    drop it, so it changes neither the checkpoint nor the score."""
    ckpt, args, _ = train_tiny(workdir, capsys, extra=("--deterministic",))
    lines = (workdir / "clean.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    padded = workdir / "with-empty.tsv"
    padded.write_text("".join(lines[:2] + ["what is for lunch\t\n"] + lines[2:]),
                      encoding="utf-8")
    padded_args = ["--pairs", str(padded)] + args[2:]
    other = workdir / "with-empty.ckpt"
    with caplog.at_level(logging.INFO):
        rc, _, err = run(capsys, "train", *padded_args, "--scheme", "glo",
                         "--out", str(other), "--d-h", "8", "--d-emb", "6",
                         "--d-a", "8", "--d-l", "6", "--d-r", "8",
                         "--epochs", "3", "--lr", "0.5", "--batch-size", "4",
                         "--seed", "0", "--deterministic")
    assert rc == 0, err
    assert "train: dropped 1 pair(s) with an empty post or response" in caplog.text
    assert other.read_bytes() == ckpt.read_bytes()

    outputs = []
    for pair_args in (args, padded_args):
        rc, out, err = run(capsys, "perplexity", "--checkpoint", str(ckpt),
                           *pair_args, "--deterministic", "--quiet")
        assert rc == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_perplexity_rejects_vocab_checkpoint_mismatch(workdir, capsys):
    ckpt, args, _ = train_tiny(workdir, capsys)
    # vocabularies built on the raw corpus are bigger than the training ones
    for side in ("post", "response"):
        rc, _, err = run(capsys, "build-vocab", "--pairs", str(workdir / "raw.tsv"),
                         "--side", side, "--out", str(workdir / f"big-{side}.vocab"),
                         "--quiet")
        assert rc == 0, err
    rc, out, err = run(capsys, "perplexity", "--checkpoint", str(ckpt),
                       "--pairs", str(workdir / "raw.tsv"),
                       "--post-vocab", str(workdir / "big-post.vocab"),
                       "--resp-vocab", str(workdir / "big-response.vocab"), "--quiet")
    assert rc == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: vocabulary sizes")


def test_inspect_checkpoint(workdir, capsys):
    ckpt, _, _ = train_tiny(workdir, capsys, scheme="hyb")
    rc, out, err = run(capsys, "inspect-checkpoint", "--checkpoint", str(ckpt),
                       "--quiet")
    assert rc == 0, err
    rows = table(out)
    assert rows["scheme"][0][0] == "hyb"
    assert int(rows["d_h"][0][0]) == 8
    names = {r[0] for r in rows["tensor"]}
    assert {"E_x", "enc.W_z", "enc_g.W_z", "attn.W_a", "W_o"} <= names
    assert int(rows["parameters"][0][0]) > 0


def test_inspect_checkpoint_norm_past_the_square_overflow(tmp_path, capsys):
    """A finite tensor whose sum of squares overflows still gets its norm,
    and no warning reaches stderr."""
    params = init_params("glo", Dims(d_h=4, d_emb=3, d_a=0, d_L=3, d_r=4, v_post=8,
                                     v_resp=8), Rng(0))
    params.W_o[0, 0] = 1e200
    path = tmp_path / "big.ckpt"
    save_checkpoint(params, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "inspect-checkpoint", "--checkpoint", str(path), "--quiet")
    assert rc == 0 and err == ""
    assert ["W_o", "8x4", "1.000000e+200"] in table(out)["tensor"]


def test_warm_start_training(workdir, capsys):
    loc_ckpt, args, _ = train_tiny(workdir, capsys, scheme="loc")
    glo_ckpt = workdir / "glo-src.ckpt"
    rc, _, err = run(capsys, "train", *args, "--scheme", "glo",
                     "--out", str(glo_ckpt), "--d-h", "8", "--d-emb", "6",
                     "--d-a", "8", "--d-l", "6", "--d-r", "8",
                     "--epochs", "2", "--lr", "0.5", "--batch-size", "4",
                     "--quiet")
    assert rc == 0, err
    hyb_ckpt = workdir / "warm.ckpt"
    rc, out, err = run(capsys, "train", *args,
                       "--init-from-loc", str(loc_ckpt),
                       "--init-from-glo", str(glo_ckpt),
                       "--out", str(hyb_ckpt), "--epochs", "2", "--lr", "0.5",
                       "--batch-size", "4", "--quiet")
    assert rc == 0, err
    rc, out, _ = run(capsys, "inspect-checkpoint", "--checkpoint",
                     str(hyb_ckpt), "--quiet")
    assert table(out)["scheme"][0][0] == "hyb"


@pytest.mark.parametrize("source", ["clean.tsv", "raw.tsv"], ids=["smaller", "larger"])
def test_warm_start_refuses_vocabularies_the_sources_do_not_have(source, workdir, capsys):
    """Vocabulary files of other sizes than the source checkpoints' tables
    are refused before --log is opened or training starts."""
    loc_ckpt, args, _ = train_tiny(workdir, capsys, scheme="loc")
    glo_ckpt, _, _ = train_tiny(workdir, capsys, scheme="glo")
    for side in ("post", "response"):
        rc, _, err = run(capsys, "build-vocab", "--pairs", str(workdir / source),
                         "--side", side, "--out", str(workdir / f"other-{side}.vocab"),
                         *(("--cap", "4") if source == "clean.tsv" else ()), "--quiet")
        assert rc == 0, err
    out_path, log_path = workdir / "warm.ckpt", workdir / "warm.log"
    rc, out, err = run(capsys, "train", *args[:2],
                       "--post-vocab", str(workdir / "other-post.vocab"),
                       "--resp-vocab", str(workdir / "other-response.vocab"),
                       "--init-from-loc", str(loc_ckpt), "--init-from-glo", str(glo_ckpt),
                       "--out", str(out_path), "--log", str(log_path), "--quiet")
    assert rc == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: vocabulary sizes")
    assert not out_path.exists() and not log_path.exists()


def _warm_start_args(workdir, capsys):
    """Corpus arguments plus loc and glo sources of train_tiny's widths."""
    loc_ckpt, args, _ = train_tiny(workdir, capsys, scheme="loc")
    glo_ckpt, _, _ = train_tiny(workdir, capsys, scheme="glo")
    return args + ["--init-from-loc", str(loc_ckpt), "--init-from-glo", str(glo_ckpt),
                   "--epochs", "1", "--batch-size", "4", "--quiet"]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_warm_start_refuses_a_width_that_disagrees_with_the_sources(source, workdir, capsys):
    """A width flag or config key is checked against the hybrid the sources
    make, before --out or --log is written."""
    args = _warm_start_args(workdir, capsys)
    if source == "flag":
        extra, message = ["--d-h", "99"], "d-h 99 disagrees with the source checkpoints' d_h 8"
    else:
        cfg = workdir / "widths.cfg"
        cfg.write_text("d-emb = 6\nd-r = 12\n", encoding="utf-8")
        extra, message = ["--config", str(cfg)], \
            "d-r 12 disagrees with the source checkpoints' d_r 8"
    out_path, log_path = workdir / "warm.ckpt", workdir / "warm.log"
    rc, out, err = run(capsys, "train", *args, *extra,
                       "--out", str(out_path), "--log", str(log_path))
    assert (rc, out, err.splitlines()) == (1, "", [f"error: {message}"])
    assert not out_path.exists() and not log_path.exists()


def test_warm_start_accepts_widths_equal_to_the_sources(workdir, capsys):
    args = _warm_start_args(workdir, capsys)
    out_path = workdir / "warm.ckpt"
    rc, _, err = run(capsys, "train", *args, "--out", str(out_path),
                     "--d-h", "8", "--d-emb", "6", "--d-a", "8", "--d-l", "6", "--d-r", "8")
    assert rc == 0, err
    rc, out, _ = run(capsys, "inspect-checkpoint", "--checkpoint", str(out_path), "--quiet")
    rows = table(out)
    assert rows["scheme"] == [["hyb"]] and rows["d_h"] == [["8"]] and rows["d_r"] == [["8"]]


def test_width_flags_and_stored_sizes_cover_dims():
    """A field added to Dims fails here until the width flags (all but the
    vocabulary sizes, which come from the vocabularies) and the checkpoint
    header (all but d_r, which W_s's shape gives) each declare it."""
    fields = [f.name for f in dataclasses.fields(Dims)]
    assert list(_DIM_FLAGS) == [f for f in fields if f not in ("v_post", "v_resp")]
    assert list(_STORED_DIMS) == [f for f in fields if f != "d_r"]
    # magic, version, scheme code, precision, the stored sizes, tensor count
    assert len(struct.unpack(_HEADER, bytes(struct.calcsize(_HEADER)))) == \
        4 + len(_STORED_DIMS) + 1


def test_warm_start_flag_pairing_enforced(workdir, capsys):
    ckpt, args, _ = train_tiny(workdir, capsys, scheme="loc")
    rc, _, err = run(capsys, "train", *args, "--init-from-loc", str(ckpt),
                     "--out", str(workdir / "x.ckpt"), "--quiet")
    assert rc == 1
    assert err.strip().startswith("error:")


# --- generation ------------------------------------------------------------------


def test_generate_single_post(workdir, capsys):
    ckpt, args, _ = train_tiny(workdir, capsys)
    vocab_args = args[2:]  # drop --pairs for generate
    rc, out, err = run(capsys, "generate", "--checkpoint", str(ckpt),
                       *vocab_args, "--post", "what is for lunch",
                       "--beam", "4", "--max-len", "6", "--quiet")
    assert rc == 0, err
    lines = [l for l in out.strip().splitlines()]
    assert 1 <= len(lines) <= 4
    rank, log_prob, text = lines[0].split("\t")
    assert rank == "1"
    assert float(log_prob) < 0.0
    assert text  # nonempty response words


def test_generate_posts_file_with_headers(workdir, capsys):
    ckpt, args, _ = train_tiny(workdir, capsys)
    posts = workdir / "posts.txt"
    posts.write_text("how are you today\nwhere should we meet\n", encoding="utf-8")
    out_file = workdir / "gen.tsv"
    rc, _, err = run(capsys, "generate", "--checkpoint", str(ckpt), *args[2:],
                     "--posts-file", str(posts), "--out", str(out_file),
                     "--beam", "3", "--max-len", "5", "--quiet")
    assert rc == 0, err
    content = out_file.read_text(encoding="utf-8")
    assert content.count("post\t") == 2
    assert "post\thow are you today\n" in content


@pytest.mark.parametrize("scheme", ["glo", "hyb"])
def test_generate_posts_file_equals_per_post_search_at_full_width(scheme, tmp_path, capsys):
    """At d_h 256 and 8000 words, with the end marker out of every top-k cut
    so that each post keeps its full beam, the joined search of `generate
    --posts-file` prints the per-post beam_search lines byte for byte."""
    dims = Dims(d_h=256, d_emb=128, d_a=256, d_L=128, d_r=256, v_post=8000, v_resp=8000)
    params = init_params(scheme, dims, Rng(3))
    params.b_o[EOS_ID] -= 50.0
    words = [f"w{i}" for i in range(dims.v_resp - 4)]
    vocab = Vocabulary.from_tokens("post", words)
    vocab.save(tmp_path / "words.vocab")
    save_checkpoint(params, tmp_path / "model.ckpt")
    posts = [words[100 * n:101 * n] for n in (1, 5, 12)]
    (tmp_path / "posts.txt").write_text("".join(" ".join(p) + "\n" for p in posts),
                                        encoding="utf-8")
    beam, max_len = 10, 5
    rc, out, err = run(capsys, "generate", "--checkpoint", str(tmp_path / "model.ckpt"),
                       "--post-vocab", str(tmp_path / "words.vocab"),
                       "--resp-vocab", str(tmp_path / "words.vocab"),
                       "--posts-file", str(tmp_path / "posts.txt"),
                       "--beam", str(beam), "--max-len", str(max_len), "--quiet")
    assert rc == 0, err
    solo = [beam_search(params, encode(post, vocab), beam, max_len) for post in posts]
    joined = beam_search_posts(params, [encode(post, vocab) for post in posts], beam, max_len)
    assert joined == solo  # bit for bit, not only to the printed digits
    expected = ""
    for post, hyps in zip(posts, solo):
        assert [len(tokens) for tokens, _ in hyps] == [max_len] * beam
        expected += "post\t" + " ".join(post) + "\n"
        for rank, (ids, log_prob) in enumerate(hyps, start=1):
            expected += f"{rank}\t{log_prob:.10f}\t{' '.join(vocab.decode(ids))}\n"
    assert out == expected


def test_generate_with_no_emittable_response_token_is_one_error_line(tmp_path, capsys):
    """A response vocabulary of the reserved tokens alone, under
    --suppress-unk, leaves no token to emit: generate and multi-generate
    print one error line and leave an --out file as it was. Without the
    flag they decode <unk> runs."""
    dims = Dims(d_h=8, d_emb=6, d_a=8, d_L=6, d_r=8, v_post=7, v_resp=4)
    save_checkpoint(init_params("loc", dims, Rng(3)), tmp_path / "model.ckpt")
    Vocabulary.from_tokens("post", ["a", "b", "c"]).save(tmp_path / "post.vocab")
    Vocabulary.from_tokens("response", []).save(tmp_path / "resp.vocab")
    args = ["--checkpoint", str(tmp_path / "model.ckpt"),
            "--post-vocab", str(tmp_path / "post.vocab"),
            "--resp-vocab", str(tmp_path / "resp.vocab"),
            "--post", "a b", "--beam", "3", "--max-len", "2", "--quiet"]
    kept = tmp_path / "kept.txt"
    kept.write_text("earlier output\n", encoding="utf-8")
    for cmd in ("generate", "multi-generate"):
        for out_args in ((), ("--out", str(kept))):
            rc, out, err = run(capsys, cmd, *args, "--suppress-unk", *out_args)
            assert rc == 1 and out == ""
            lines = err.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("error: no response token can be emitted")
        assert kept.read_text(encoding="utf-8") == "earlier output\n"
        rc, out, err = run(capsys, cmd, *args)
        assert rc == 0, err
        assert out and all(line.split("\t")[2].split()[0] == "<unk>"
                           for line in out.splitlines())


def test_multi_generate_distinct_first_words(workdir, capsys):
    ckpt, args, _ = train_tiny(workdir, capsys)
    rc, out, err = run(capsys, "multi-generate", "--checkpoint", str(ckpt),
                       *args[2:], "--post", "did you see that game",
                       "--beam", "30", "--max-len", "5", "--quiet")
    assert rc == 0, err
    firsts = [line.split("\t")[2].split()[0] for line in out.strip().splitlines()]
    assert len(set(firsts)) == len(firsts)


def test_generate_posts_file_not_utf8_names_the_file(workdir, capsys):
    ckpt, args, _ = train_tiny(workdir, capsys)
    posts = workdir / "posts.txt"
    posts.write_bytes(b"how are you\nwhere \xff we meet\n")
    for cmd in ("generate", "multi-generate"):
        rc, out, err = run(capsys, cmd, "--checkpoint", str(ckpt), *args[2:],
                           "--posts-file", str(posts), "--beam", "3", "--quiet")
        assert rc == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {posts}: not valid UTF-8 (")


def test_generate_rejects_vocab_checkpoint_mismatch(workdir, capsys):
    ckpt, args, _ = train_tiny(workdir, capsys)
    # a vocab built on the raw corpus is bigger than the training one
    rc, _, err = run(capsys, "build-vocab", "--pairs", str(workdir / "raw.tsv"),
                     "--side", "response", "--out", str(workdir / "big.vocab"),
                     "--quiet")
    assert rc == 0
    rc, _, err = run(capsys, "generate", "--checkpoint", str(ckpt),
                     "--post-vocab", args[3], "--resp-vocab",
                     str(workdir / "big.vocab"), "--post", "hello",
                     "--quiet")
    assert rc == 1
    assert "error:" in err


def test_generate_requires_exactly_one_post_source(workdir, capsys):
    ckpt, args, _ = train_tiny(workdir, capsys)
    rc, _, err = run(capsys, "generate", "--checkpoint", str(ckpt), *args[2:],
                     "--quiet")
    assert rc == 1 and "error:" in err


# --- statistics commands -----------------------------------------------------------


def test_kappa_command(workdir, capsys):
    ann = workdir / "ann.csv"
    ann.write_text("item,rater,label\n"
                   "i1,r1,2\ni1,r2,2\ni1,r3,1\n"
                   "i2,r1,0\ni2,r2,0\ni2,r3,0\n", encoding="utf-8")
    rc, out, err = run(capsys, "kappa", "--annotations", str(ann), "--quiet")
    assert rc == 0, err
    rows = table(out)
    assert float(rows["kappa"][0][0]) == pytest.approx(5.0 / 11.0, abs=1e-9)
    assert rows["items"][0][0] == "2" and rows["raters"][0][0] == "3"


def test_friedman_command(workdir, capsys):
    scores = workdir / "scores.csv"
    scores.write_text("A,B\n2.0,1.0\n3.0,0.5\n5.0,4.0\n", encoding="utf-8")
    rc, out, err = run(capsys, "friedman", "--scores", str(scores), "--quiet")
    assert rc == 0, err
    rows = table(out)
    assert float(rows["statistic"][0][0]) == pytest.approx(3.0)
    assert rows["dof"][0][0] == "1"
    ranks = {r[0]: float(r[1]) for r in rows["avg_rank"]}
    assert ranks == {"A": 1.0, "B": 2.0}


@pytest.mark.parametrize("command, flag, text", [
    ("kappa", "--annotations", "item,rater,label\ni1,r1,2\ni1,r2,99999999999999999999\n"),
    ("kappa", "--annotations", "item,rater,label\ni1,r1,2\ni1,r2,\"" + "x" * 131_073 + "\"\n"),
    ("friedman", "--scores", "A,B\n1,2\n2," + "1" * 131_073 + "\n"),
], ids=["huge-label", "long-label", "long-score"])
def test_bad_csv_row_is_one_error_line_naming_its_line(command, flag, text, workdir, capsys):
    """A label far outside the categories, and a field over the csv module's
    size limit, are refused with the file and line, not a traceback."""
    path = workdir / "bad.csv"
    path.write_text(text, encoding="utf-8")
    rc, out, err = run(capsys, command, flag, str(path), "--quiet")
    assert rc == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}:3: "), err[:300]


@pytest.mark.parametrize("name", ["a\tb", "a\nb\nc", "a\u2028b"], ids=["tab", "lf", "u2028"])
def test_friedman_refuses_a_name_that_would_split_its_line(name, workdir, capsys):
    """A treatment name is printed inside its avg_rank line, so a tab or a
    line break in it is refused with the file and the header line."""
    path = workdir / "scores.csv"
    path.write_text(f'"{name}",B\n2.0,1.0\n', encoding="utf-8")
    rc, out, err = run(capsys, "friedman", "--scores", str(path), "--quiet")
    assert rc == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}:1: treatment name "), err


@pytest.mark.parametrize("command, bad", [
    ("clean", "stoplist"), ("perplexity", "post-vocab"), ("perplexity", "resp-vocab"),
    ("perplexity", "pairs"), ("kappa", "annotations"), ("friedman", "scores"),
    ("kappa", "config"),
])
def test_input_file_not_utf8_names_the_file(command, bad, workdir, capsys):
    """Every reader names the file that is not UTF-8; perplexity reads three."""
    args = prep_corpus(workdir, capsys)
    files = {flag[2:]: value for flag, value in zip(args[::2], args[1::2])}
    sizes = [len(Vocabulary.load(files[side])) for side in ("post-vocab", "resp-vocab")]
    files["checkpoint"] = workdir / "tiny.ckpt"
    save_checkpoint(init_params("glo", Dims(d_h=4, d_emb=3, d_a=4, d_L=3, d_r=4,
                                            v_post=sizes[0], v_resp=sizes[1]), Rng(0)),
                    files["checkpoint"])
    for name, text in (("stoplist", "lol\n"), ("annotations", "item,rater,label\ni1,r1,2\n"),
                       ("scores", "A,B\n1,2\n"), ("config", "quiet = 1\n")):
        files[name] = workdir / f"{name}.txt"
        files[name].write_text(text, encoding="utf-8")
    files[bad] = workdir / f"bad-{bad}"
    files[bad].write_bytes(b"\xff" + (workdir / "raw.tsv").read_bytes())
    flags = {"clean": ["pairs", "stoplist"], "kappa": ["annotations"], "friedman": ["scores"],
             "perplexity": ["checkpoint", "pairs", "post-vocab", "resp-vocab"]}[command]
    argv = [command, "--out", str(workdir / "out.tsv")] if command == "clean" else [command]
    for flag in flags + (["config"] if bad == "config" else []):
        argv += [f"--{flag}", str(files[flag])]
    rc, out, err = run(capsys, *argv, "--quiet")
    assert rc == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {files[bad]}: not valid UTF-8 ("), err


def test_grad_check_command_passes(capsys):
    rc, out, err = run(capsys, "grad-check", "--scheme", "glo", "--quiet")
    assert rc == 0, err
    lines = out.strip().splitlines()
    assert all(line.endswith("ok") for line in lines)
    assert lines[-1].split("\t")[1] == "worst"


def test_grad_check_command_passes_on_small_gradients(capsys):
    """At these dims some correct gradient entries are near 1e-8, where the
    central difference's roundoff alone exceeds the tolerance."""
    rc, out, err = run(capsys, "grad-check", "--scheme", "glo", "--d-h", "16", "--d-a", "16",
                       "--d-r", "16", "--vocab-size", "40", "--batch", "4", "--quiet")
    assert rc == 0, out + err


def test_grad_check_command_fails_at_impossible_tolerance(capsys):
    rc, out, _ = run(capsys, "grad-check", "--scheme", "glo",
                     "--tol", "1e-15", "--quiet")
    assert rc == 1
    assert "FAIL" in out


@pytest.mark.parametrize("flag, value", [("--eps", "0"), ("--eps", "-0.5"), ("--eps", "nan"),
                                         ("--eps", "inf"), ("--tol", "0"), ("--tol", "nan"),
                                         ("--tol", "inf")])
def test_grad_check_rejects_bad_eps_and_tol(flag, value, capsys):
    rc, out, err = run(capsys, "grad-check", "--scheme", "glo", flag, value, "--quiet")
    assert rc == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {flag[2:]} must be a finite number")


@pytest.mark.parametrize("command, flag, value", [
    ("grad-check", "--eps", "-1e-5"), ("grad-check", "--tol", "-1e-5"),
    ("train", "--lr", "-1e-3"), ("train", "--clip-norm", "-1e-3")])
def test_negative_exponent_values_reach_the_value_check(command, flag, value,
                                                        workdir, capsys):
    """argparse's own matcher takes -1e-5 for an option and exits 2 with its
    usage text; the value must instead reach the command's range check."""
    args = ["--scheme", "glo", "--quiet"]
    if command == "train":
        args += [*prep_corpus(workdir, capsys), "--out", str(workdir / "model.ckpt"),
                 "--epochs", "1"]
    rc, out, err = run(capsys, command, *args, flag, value)
    assert rc == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {flag[2:]} must be a finite number")
    assert lines[0].endswith(f"got {float(value)}")


# --- config file and error handling ---------------------------------------------


def test_config_file_supplies_settings(workdir, capsys):
    args = prep_corpus(workdir, capsys)
    cfg = workdir / "run.cfg"
    cfg.write_text(
        "# tiny training run\n"
        f"pairs = {workdir / 'clean.tsv'}\n"
        f"post-vocab = {workdir / 'post.vocab'}\n"
        f"resp-vocab = {workdir / 'response.vocab'}\n"
        "scheme = glo\n"
        f"out = {workdir / 'from-config.ckpt'}\n"
        "d-h = 8\nd-emb = 6\nd-a = 8\nd-l = 6\nd-r = 8\n"
        "epochs = 2\nlr = 0.5\nbatch-size = 4\nquiet = yes\n",
        encoding="utf-8")
    rc, out, err = run(capsys, "train", "--config", str(cfg))
    assert rc == 0, err
    assert (workdir / "from-config.ckpt").exists()
    assert table(out)["epochs"][0][0] == "2"


def test_cli_flag_overrides_config(workdir, capsys):
    prep_corpus(workdir, capsys)
    cfg = workdir / "run.cfg"
    cfg.write_text(
        f"pairs = {workdir / 'clean.tsv'}\n"
        f"post-vocab = {workdir / 'post.vocab'}\n"
        f"resp-vocab = {workdir / 'response.vocab'}\n"
        "scheme = glo\n"
        f"out = {workdir / 'o.ckpt'}\n"
        "d-h = 8\nd-emb = 6\nd-a = 8\nd-l = 6\nd-r = 8\n"
        "epochs = 2\nlr = 0.5\nbatch-size = 4\nquiet = yes\n",
        encoding="utf-8")
    rc, out, err = run(capsys, "train", "--config", str(cfg), "--epochs", "4")
    assert rc == 0, err
    assert table(out)["epochs"][0][0] == "4"


def test_missing_required_setting_is_one_line_error(workdir, capsys):
    rc, _, err = run(capsys, "clean", "--pairs", str(workdir / "raw.tsv"),
                     "--quiet")
    assert rc == 1
    error_lines = [l for l in err.strip().splitlines() if l.startswith("error:")]
    assert len(error_lines) == 1
    assert "out" in error_lines[0]


def test_missing_input_file_reported(workdir, capsys):
    rc, _, err = run(capsys, "clean", "--pairs", str(workdir / "nope.tsv"),
                     "--out", str(workdir / "c.tsv"), "--quiet")
    assert rc == 1 and "error:" in err
    assert not (workdir / "c.tsv").exists()  # nothing half-written


@pytest.mark.parametrize("setting", ["checkpoint", "post-vocab"])
def test_a_directory_given_for_an_input_file_is_named_as_one(setting, tmp_path, capsys):
    """A path that exists but is a directory is reported as a directory,
    not as missing: inspect-checkpoint --checkpoint DIR and generate
    --post-vocab DIR."""
    ckpt, resp_vocab = tmp_path / "m.ckpt", tmp_path / "resp.vocab"
    dims = Dims(d_h=8, d_emb=6, d_a=8, d_L=6, d_r=8, v_post=12, v_resp=12)
    save_checkpoint(init_params("glo", dims, Rng(0)), ckpt)
    resp_vocab.write_text("", encoding="utf-8")
    if setting == "checkpoint":
        argv = ["inspect-checkpoint", "--checkpoint", str(tmp_path)]
    else:
        argv = ["generate", "--checkpoint", str(ckpt), "--post-vocab", str(tmp_path),
                "--resp-vocab", str(resp_vocab), "--post", "what is for lunch"]
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err.splitlines()) == (1, "", [f"error: {setting} is a directory: {tmp_path}"])


def test_bad_config_value_rejected_before_output(workdir, capsys):
    cfg = workdir / "bad.cfg"
    cfg.write_text("per-post-cap = banana\n", encoding="utf-8")
    rc, _, err = run(capsys, "clean", "--config", str(cfg),
                     "--pairs", str(workdir / "raw.tsv"),
                     "--out", str(workdir / "c.tsv"), "--quiet")
    assert rc == 1 and "error:" in err
    assert not (workdir / "c.tsv").exists()


def test_unknown_subcommand_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("argv", [["frobnicate"], ["train", "--no-such-flag", "x"],
                                  ["train", "--epochs"],
                                  # a flag takes only its full name, as a config key does
                                  ["grad-check", "--sch", "glo"], ["train", "--epoch", "3"]])
def test_argparse_errors_are_one_line(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    out, err = capsys.readouterr()
    assert info.value.code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("command, flag, value, message", [
    ("train", "--epochs", "abc", "error: --epochs: cannot parse 'abc'"),
    ("train", "--precision", "5", "error: precision must be one of 4, 8, got 5"),
    ("build-vocab", "--side", "foo",
     "error: side must be one of post, response, got 'foo'"),
    ("grad-check", "--batch", "x", "error: --batch: cannot parse 'x'")])
def test_malformed_flag_value_is_one_line_error(command, flag, value, message,
                                                workdir, capsys):
    out_path = workdir / "out"
    if command == "train":
        required = [*prep_corpus(workdir, capsys), "--scheme", "glo", "--out", str(out_path)]
    elif command == "build-vocab":
        required = ["--pairs", str(workdir / "raw.tsv"), "--out", str(out_path)]
    else:
        required = ["--scheme", "glo"]
    rc, out, err = run(capsys, command, *required, flag, value, "--quiet")
    assert rc == 1 and out == ""
    assert err.splitlines() == [message]
    assert not out_path.exists()


def test_config_file_refuses_unknown_keys_only(workdir, capsys):
    """A key of another subcommand (beam) is accepted, so one file can serve
    several subcommands; a misspelled key (epoch) is refused before any
    output is written."""
    prep_corpus(workdir, capsys)
    ckpt = workdir / "o.ckpt"
    cfg = workdir / "run.cfg"
    settings = (f"pairs = {workdir / 'clean.tsv'}\n"
                f"post-vocab = {workdir / 'post.vocab'}\n"
                f"resp-vocab = {workdir / 'response.vocab'}\n"
                f"scheme = glo\nout = {ckpt}\n"
                "d-h = 8\nd-emb = 6\nd-a = 8\nd-l = 6\nd-r = 8\n"
                "lr = 0.5\nbatch-size = 4\nquiet = yes\nbeam = 5\n")
    cfg.write_text(settings + "epoch = 3\n", encoding="utf-8")
    rc, out, err = run(capsys, "train", "--config", str(cfg))
    assert rc == 1 and out == ""
    assert err.splitlines() == [f"error: {cfg}:15: unknown setting 'epoch'"]
    assert not ckpt.exists()

    cfg.write_text(settings + "epochs = 3\n", encoding="utf-8")
    rc, out, err = run(capsys, "train", "--config", str(cfg))
    assert rc == 0, err
    assert table(out)["epochs"][0][0] == "3"
