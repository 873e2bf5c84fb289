"""Hypothesis fuzzing of every subcommand's flags and config file, of
checkpoint bytes, and of the contents of every other input file.

Each drawn invocation holds at least one value the subcommand must refuse,
and no input file exists, so every run must end with exit code 1, nothing
on stdout and exactly one ``error: ...`` line on stderr, never a traceback.
No draw uses a valid --threads or --deterministic, which would export BLAS
thread counts; os.environ is restored after every example all the same.

A checkpoint with flipped, cut or appended bytes must either still load
(exit 0, nothing on stderr) or be refused with that one error line. So must
a pairs file, stoplist, vocabulary, posts file or evaluation CSV with
inserted, replaced or deleted bytes and fields; on exit 0 every stdout line
has the number of tab-separated fields its key implies.
"""

import contextlib
import io
import os
import re
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from replygen import Dims, Rng, cli
from replygen.cli import main
from replygen.corpus import build_vocab, load_pairs
from replygen.model import init_params, save_checkpoint

from conftest import TINY

# No control characters, so a drawn config line stays one line. The line
# separator U+2028 is drawn often: it must not split the error line.
TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc")) | st.just("\u2028"),
               max_size=8)


def unparseable(cast):
    def fails(text):
        try:
            cast(text)
        except ValueError:
            return True
        return False
    return TEXT.filter(fails)


# Every integer setting has a minimum of at least 0 (precision: 4 or 8).
BAD_INT = unparseable(int) | st.integers(max_value=-1).map(str)
BAD_FLOAT = unparseable(float) | st.sampled_from(["nan", "inf", "-inf", "-0.5", "-1e-3"])
FLOATS = {"lr", "clip-norm", "eps", "tol"}
CHOICES = {"scheme", "side"}
INPUT_FILES = {"pairs", "stoplist", "post-vocab", "resp-vocab", "checkpoint", "init-from-loc",
               "init-from-glo", "posts-file", "annotations", "scores"}
# Settings whose value the subcommand may accept; each draw adds at least one
# of the others, which it must refuse.
FREE = {"out", "log", "post", "quiet", "suppress-unk"}
SWITCHES = {"quiet", "suppress-unk"}


def bad_value(flag, missing_dir):
    if flag in FLOATS:
        return BAD_FLOAT
    if flag in CHOICES:
        return TEXT.filter(lambda s: s.strip() not in ("glo", "loc", "hyb", "all",
                                                       "post", "response"))
    if flag in INPUT_FILES or flag in ("out", "log"):
        return TEXT.map(lambda s: f"{missing_dir}/{s}")
    if flag == "seed":
        return unparseable(int)
    if flag == "post":
        return TEXT
    return BAD_INT


def config_lines(keys, missing_dir):
    """Blank, comment, malformed and unknown-key lines, and known keys with
    values the subcommand must refuse."""
    known = st.sampled_from(keys).flatmap(
        lambda key: bad_value(key, missing_dir).map(lambda value: f"{key} = {value}"))
    return st.lists(st.one_of(
        st.just(""),
        TEXT.map(lambda s: "#" + s),
        TEXT.filter(lambda s: "=" not in s),
        TEXT.filter(lambda s: s.split("=")[0].strip() not in cli._SETTINGS).map(
            lambda s: s + " = 1"),
        known), max_size=4)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_refused_invocations_are_one_error_line(command, fuzz_dir, data):
    missing_dir = fuzz_dir / "absent"
    flags = cli._COMMANDS[command][2].split() + ["seed", "threads", "quiet"]
    refused = [f for f in flags if f not in FREE]
    chosen = data.draw(st.lists(st.sampled_from(refused), min_size=1, unique=True))
    chosen += data.draw(st.lists(st.sampled_from([f for f in flags if f in FREE]),
                                 unique=True))
    argv = [command]
    for flag in data.draw(st.permutations(chosen)):
        argv.append(f"--{flag}")
        if flag not in SWITCHES:
            argv.append(data.draw(bad_value(flag, missing_dir)))
    config = data.draw(st.sampled_from(["none", "missing", "text"]))
    if config == "missing":
        argv += ["--config", str(missing_dir / "run.cfg")]
    elif config == "text":
        path = fuzz_dir / "run.cfg"
        path.write_text("\n".join(data.draw(config_lines(refused, missing_dir))),
                        encoding="utf-8")
        argv += ["--config", str(path)]

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    assert code == 1, (argv, err.getvalue())
    assert out.getvalue() == ""
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())


def _run(argv):
    """main(argv) in process; returns (exit code, stdout, stderr). Each
    warning counts as a stderr line, as it prints there outside pytest."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue() + "".join(
        f"{w.category.__name__}: {w.message}\n" for w in caught)


@pytest.mark.parametrize("precision", [4, 8])
@pytest.mark.parametrize("scheme", ["glo", "hyb"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_checkpoints_load_or_are_one_error_line(scheme, precision, fuzz_dir, data):
    path = fuzz_dir / f"{scheme}-{precision}.ckpt"
    if not path.exists():
        save_checkpoint(init_params(scheme, TINY, Rng(7)), path, precision=precision)
    good = path.read_bytes()
    mutated = bytearray(good)
    kind = data.draw(st.sampled_from(["flip", "truncate", "extend"]))
    if kind == "flip":
        # the header and the first tensor's record often, any byte sometimes
        where = st.integers(0, 80) | st.integers(0, len(good) - 1)
        for pos in data.draw(st.lists(where, min_size=1, max_size=4)):
            mutated[pos] ^= data.draw(st.integers(1, 255))
    elif kind == "truncate":
        del mutated[data.draw(st.integers(0, len(good) - 1)):]
    else:
        mutated += data.draw(st.binary(min_size=1, max_size=16))
    target = fuzz_dir / "mutated.ckpt"
    target.write_bytes(mutated)

    code, out, err = _run(["inspect-checkpoint", "--checkpoint", str(target), "--quiet"])
    if code == 0:
        assert err == "" and out.startswith("scheme\t"), (kind, err)
    else:
        lines = err.splitlines()
        assert code == 1 and out == "", (kind, code, err)
        assert len(lines) == 1 and lines[0].startswith("error: "), (kind, err)


PAIRS = """\
how are you today\ti am doing fine thanks
what is for lunch\tmaybe some hot soup
any plans tonight\tvisit https://spam.example now
did you see that game\tlol
where should we meet\tby the main gate
"""

# The file each fuzzed input starts from, and the argv that reads it as {F}.
INPUTS = {
    "pairs-clean": ("pairs.tsv", ["clean", "--pairs", "{F}", "--out", "{O}"]),
    "pairs-build-vocab": ("pairs.tsv", ["build-vocab", "--pairs", "{F}", "--side", "post",
                                        "--out", "{O}"]),
    "stoplist": ("stop.txt", ["clean", "--pairs", "{D}/pairs.tsv", "--stoplist", "{F}",
                              "--out", "{O}"]),
    "post-vocab": ("post.vocab", ["perplexity", "--checkpoint", "{D}/tiny.ckpt",
                                  "--pairs", "{D}/pairs.tsv", "--post-vocab", "{F}",
                                  "--resp-vocab", "{D}/response.vocab"]),
    "resp-vocab": ("response.vocab", ["perplexity", "--checkpoint", "{D}/tiny.ckpt",
                                      "--pairs", "{D}/pairs.tsv", "--post-vocab",
                                      "{D}/post.vocab", "--resp-vocab", "{F}"]),
    # one-token responses at a beam wider than the vocabulary print every word
    "resp-vocab-generate": ("response.vocab", ["generate", "--checkpoint", "{D}/tiny.ckpt",
                                               "--post-vocab", "{D}/post.vocab",
                                               "--resp-vocab", "{F}", "--post", "how are you",
                                               "--beam", "30", "--max-len", "1"]),
    "pairs-train": ("pairs.tsv", ["train", "--pairs", "{F}", "--post-vocab", "{D}/post.vocab",
                                  "--resp-vocab", "{D}/response.vocab", "--scheme", "glo",
                                  "--out", "{O}", "--d-h", "4", "--d-emb", "3", "--d-a", "4",
                                  "--d-l", "3", "--d-r", "4", "--epochs", "1",
                                  "--batch-size", "4"]),
    "pairs-perplexity": ("pairs.tsv", ["perplexity", "--checkpoint", "{D}/tiny.ckpt",
                                       "--pairs", "{F}", "--post-vocab", "{D}/post.vocab",
                                       "--resp-vocab", "{D}/response.vocab"]),
    "posts-file": ("posts.txt", ["generate", "--checkpoint", "{D}/tiny.ckpt",
                                 "--post-vocab", "{D}/post.vocab", "--resp-vocab",
                                 "{D}/response.vocab", "--posts-file", "{F}",
                                 "--beam", "2", "--max-len", "3"]),
    "annotations": ("ann.csv", ["kappa", "--annotations", "{F}"]),
    "scores": ("scores.csv", ["friedman", "--scores", "{F}"]),
}

# What a mutation inserts: the separators of every format, bytes that are
# not UTF-8, a field past the csv module's 131072-character limit and
# integers far past int64.
PIECES = (st.sampled_from([b"\t", b",", b'"', b"\n", b"\r", b"\x00", b"\xff", b"\xc3",
                           "\u2028".encode(), b" ", b"=", b"<pad>", b"nan", b"-inf", b"1e999"])
          | st.binary(min_size=1, max_size=6)
          | st.integers(131_073, 140_000).map(lambda n: b"x" * n)
          | st.integers(min_value=2 ** 63).map(lambda n: str(n).encode()))


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    """Valid inputs: pairs, stoplist, both vocabularies, a tiny glo
    checkpoint of their sizes, posts and both CSVs."""
    d = tmp_path_factory.mktemp("inputs")
    (d / "pairs.tsv").write_text(PAIRS, encoding="utf-8")
    (d / "stop.txt").write_text("lol\nok\n", encoding="utf-8")
    (d / "posts.txt").write_text("how are you\n\nwhat is for lunch\n", encoding="utf-8")
    (d / "ann.csv").write_text("item,rater,label\ni1,r1,2\ni1,r2,1\n"
                               "i2,r1,0\ni2,r2,0\n", encoding="utf-8")
    (d / "scores.csv").write_text("A,B\n2.0,1.0\n3.0,0.5\n", encoding="utf-8")
    sizes = []
    for side in ("post", "response"):
        vocab, _ = build_vocab(load_pairs(d / "pairs.tsv"), side)
        vocab.save(d / f"{side}.vocab")
        sizes.append(len(vocab))
    dims = Dims(d_h=4, d_emb=3, d_a=4, d_L=3, d_r=4, v_post=sizes[0], v_resp=sizes[1])
    save_checkpoint(init_params("glo", dims, Rng(0)), d / "tiny.ckpt")
    return d


# Up to three edits: insert a piece at a byte offset, replace a whole field
# or separator with one, or delete as many bytes as the piece is long, at
# most 8. Offsets and field indices wrap around the file.
MUTATIONS = st.lists(st.tuples(st.sampled_from(["insert", "replace", "delete"]),
                               st.integers(0, 2 ** 16), PIECES), min_size=1, max_size=3)


def mutate(good: bytes, mutations) -> bytes:
    data = good
    for action, where, piece in mutations:
        if action == "replace":
            parts = re.split(rb"([\t,\n ])", data)
            parts[where % len(parts)] = piece
            data = b"".join(parts)
            continue
        pos = where % (len(data) + 1)
        end = pos + min(len(piece), 8) if action == "delete" else pos
        data = data[:pos] + (piece if action == "insert" else b"") + data[end:]
    return data


def fields(key):
    """Tab-separated fields of a stdout line that starts with ``key``: a
    generate rank line and the avg_rank and fraction lines have three, every
    other line two."""
    return 3 if key.isdigit() or key in ("avg_rank", "fraction") else 2


@pytest.mark.parametrize("kind", list(INPUTS))
@settings(max_examples=40, deadline=None)
@given(mutations=MUTATIONS)
# A label far past int64 (ann.csv's field 10 is its first label), a field
# past the csv limit, a tab in a word (response.vocab's field 8 is its first
# content token) and line breaks in a name (scores.csv's field 0), in every
# input.
@example(mutations=[("replace", 10, str(2 ** 64).encode())])
@example(mutations=[("insert", 0, b"x" * 131_073)])
@example(mutations=[("replace", 8, b"a\tb")])
@example(mutations=[("replace", 0, b'"a\nb\nc"')])
def test_mutated_input_files_run_or_are_one_error_line(kind, input_dir, fuzz_dir, mutations):
    name, argv = INPUTS[kind]
    mutated = mutate((input_dir / name).read_bytes(), mutations)
    target = fuzz_dir / f"mutated-{name}"
    target.write_bytes(mutated)
    values = {"F": target, "O": fuzz_dir / "out", "D": input_dir}

    code, out, err = _run([a.format(**values) for a in argv] + ["--quiet"])
    if code == 0:
        assert err == "", (kind, err)
        assert out.endswith("\n"), (kind, out)
        for line in out.splitlines():
            parts = line.split("\t")
            assert len(parts) == fields(parts[0]), (kind, line)
    else:
        lines = err.splitlines()
        assert code == 1 and out == "", (kind, code, err)
        assert len(lines) == 1 and lines[0].startswith("error: "), (kind, err[-2000:])
