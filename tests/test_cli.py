"""End-to-end subcommand tests driving replygen.cli.main in-process."""

import logging
import os

import pytest

from replygen.cli import main


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


def test_multi_generate_distinct_first_words(workdir, capsys):
    ckpt, args, _ = train_tiny(workdir, capsys)
    rc, out, err = run(capsys, "multi-generate", "--checkpoint", str(ckpt),
                       *args[2:], "--post", "did you see that game",
                       "--beam", "30", "--max-len", "5", "--quiet")
    assert rc == 0, err
    firsts = [line.split("\t")[2].split()[0] for line in out.strip().splitlines()]
    assert len(set(firsts)) == len(firsts)


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


def test_grad_check_command_passes(capsys):
    rc, out, err = run(capsys, "grad-check", "--scheme", "glo", "--quiet")
    assert rc == 0, err
    lines = out.strip().splitlines()
    assert all(line.endswith("ok") for line in lines)
    assert lines[-1].split("\t")[1] == "worst"


def test_grad_check_command_fails_at_impossible_tolerance(capsys):
    rc, out, _ = run(capsys, "grad-check", "--scheme", "glo",
                     "--tol", "1e-15", "--quiet")
    assert rc == 1
    assert "FAIL" in out


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
