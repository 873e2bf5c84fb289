"""Command-line entry point tying corpus tools, training, decoding, and
evaluation statistics together.

Usage: replygen <subcommand> [--config FILE] [flags]

Common flags (valid on every subcommand): --config, --seed, --threads,
--deterministic, --quiet. A config file is flat ``key = value`` text whose
keys are the long flag names without the leading dashes; a key that no
subcommand declares is refused. A flag, like a key, takes only its full
name: argparse's prefix abbreviations are off. Explicit flags override
config values, which override built-in defaults.

argparse only declares the flag names. Each setting is parsed and checked by
one ``_get`` call in its handler, by the same rule whether its text came
from a flag or from the config file. Results go to stdout, logs to stderr;
every failure, a malformed flag included, is a single ``error: ...`` line on
stderr with exit code 1.

--threads and --deterministic pin the numeric libraries' thread counts
through the environment, which BLAS reads once, when numpy loads. Nothing
numeric loads before that: importing ``replygen`` and this module imports no
numpy (the package resolves its exports lazily), the config file is read
here, and every handler imports what it needs when it runs. A program that
has imported numpy before calling ``main`` keeps its thread counts.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import re
import sys

logger = logging.getLogger("replygen")

_FMT = "%.10f"


class CliError(Exception):
    """A user-facing configuration or input problem."""


# --- configuration -----------------------------------------------------------


def _load_config(path):
    """Parse a flat key = value config file ('#' starts a comment line).

    A key must be a setting of some subcommand or a common flag, so that a
    misspelled one is refused instead of silently ignored. The file is read
    here, not through ``corpus``, so that nothing numeric loads before main
    pins the thread counts."""
    if not os.path.isfile(path):
        raise CliError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError as exc:
            raise CliError(f"{path}: not valid UTF-8 ({exc})") from None
    cfg = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in _SETTINGS:
            raise CliError(f"{path}:{lineno}: unknown setting {key!r}")
        cfg[key] = value
    return cfg


def _parse_bool(raw) -> bool:
    lowered = str(raw).lower()  # a store_true flag arrives as True
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _get(args, cfg, key, default=None, cast=str, minimum=None, choices=None):
    """Resolve one setting: explicit flag > config file > default.

    Text from either source is cast the same way, then range- and
    choice-checked; a parse failure names the source."""
    raw, source = getattr(args, key.replace("-", "_"), None), f"--{key}"
    if raw is None:
        raw, source = cfg.get(key), f"config key {key!r}"
    if raw is None:
        return default
    try:
        value = _parse_bool(raw) if cast is bool else cast(raw)
    except ValueError:
        raise CliError(f"{source}: cannot parse {raw!r}") from None
    if minimum is not None and value < minimum:
        raise CliError(f"{key} must be >= {minimum}, got {value}")
    if choices is not None and value not in choices:
        raise CliError(f"{key} must be one of {', '.join(map(str, choices))}, got {value!r}")
    return value


def _require(value, key):
    if value is None:
        raise CliError(f"missing required setting: {key}")
    return value


def _require_file(path, what):
    if path is None:
        raise CliError(f"missing required setting: {what}")
    if os.path.isdir(path):
        raise CliError(f"{what} is a directory: {path}")
    if not os.path.isfile(path):
        raise CliError(f"{what} not found: {path}")
    return path


def _limit_threads(n: int) -> None:
    """Pin numeric-library thread counts through the environment.

    Effective when set before the libraries initialize (fresh process);
    exported regardless so child processes inherit it.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def _out_stream(path):
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


# --- subcommands ---------------------------------------------------------------


def _cmd_clean(args, cfg):
    from .corpus import CleanConfig, DEFAULT_STOPLIST, _open_utf8, clean_corpus, load_pairs

    pairs_path = _require_file(_get(args, cfg, "pairs"), "pairs")
    out_path = _require(_get(args, cfg, "out"), "out")
    stoplist = DEFAULT_STOPLIST
    stop_path = _get(args, cfg, "stoplist")
    if stop_path is not None:
        _require_file(stop_path, "stoplist")
        with _open_utf8(stop_path) as fh:
            stoplist = frozenset(line.strip() for line in fh if line.strip())
    config = CleanConfig(
        trivial_stoplist=stoplist,
        min_response_tokens=_get(args, cfg, "min-response-tokens", 2, int, minimum=0),
        max_urls=_get(args, cfg, "max-urls", 0, int, minimum=0),
        max_duplicate_fanout=_get(args, cfg, "max-duplicate-fanout", 10, int, minimum=1),
        per_post_cap=_get(args, cfg, "per-post-cap", 30, int, minimum=1),
    )
    pairs = load_pairs(pairs_path)
    kept, counts = clean_corpus(pairs, config)
    with open(out_path, "w", encoding="utf-8") as fh:
        for pair in kept:
            fh.write(" ".join(pair.post) + "\t" + " ".join(pair.response) + "\n")
    logger.info("clean: %d pairs in, %d kept", len(pairs), len(kept))
    print(f"kept\t{len(kept)}")
    for rule, count in counts.items():
        print(f"removed_{rule}\t{count}")
    return 0


def _cmd_build_vocab(args, cfg):
    from .corpus import build_vocab, load_pairs

    pairs_path = _require_file(_get(args, cfg, "pairs"), "pairs")
    side = _get(args, cfg, "side", choices=("post", "response"))
    side = _require(side, "side")
    out_path = _require(_get(args, cfg, "out"), "out")
    cap = _get(args, cfg, "cap", 40000, int, minimum=1)
    vocab, coverage = build_vocab(load_pairs(pairs_path), side, cap)
    vocab.save(out_path)
    print(f"size\t{len(vocab)}")
    print(f"coverage\t{_FMT % coverage}")
    return 0


def _load_vocabs(args, cfg):
    from .corpus import Vocabulary

    post_path = _require_file(_get(args, cfg, "post-vocab"), "post-vocab")
    resp_path = _require_file(_get(args, cfg, "resp-vocab"), "resp-vocab")
    return (Vocabulary.load(post_path, "post"), Vocabulary.load(resp_path, "response"))


def _check_vocab_sizes(params, post_vocab, resp_vocab):
    """Refuse vocabularies whose ids would index outside the checkpoint's tables."""
    if len(post_vocab) != params.dims.v_post or len(resp_vocab) != params.dims.v_resp:
        raise CliError(
            f"vocabulary sizes ({len(post_vocab)}, {len(resp_vocab)}) do not match "
            f"checkpoint ({params.dims.v_post}, {params.dims.v_resp})")


# Each Dims width field and the flag (or config key) that sets it.
_DIM_FLAGS = {"d_h": "d-h", "d_emb": "d-emb", "d_a": "d-a", "d_L": "d-l", "d_r": "d-r"}


def _widths(args, cfg, defaults=(None,) * len(_DIM_FLAGS)):
    """Each _DIM_FLAGS width field's setting, or its entry of defaults (in
    _DIM_FLAGS order) where none is given."""
    return {field: _get(args, cfg, flag, default, int, minimum=1)
            for (field, flag), default in zip(_DIM_FLAGS.items(), defaults)}


def _usable_pairs(pairs, command):
    """Pairs with a nonempty post and response; logs how many were dropped."""
    usable = [p for p in pairs if p.post and p.response]
    if len(usable) != len(pairs):
        logger.info("%s: dropped %d pair(s) with an empty post or response",
                    command, len(pairs) - len(usable))
    return usable


def _cmd_train(args, cfg):
    from .corpus import load_pairs
    from .model import Dims, load_checkpoint, save_checkpoint
    from .numerics import Rng
    from .training import (TrainConfig, init_hybrid_from_pretrained,
                           init_params, train)

    pairs_path = _require_file(_get(args, cfg, "pairs"), "pairs")
    out_path = _require(_get(args, cfg, "out"), "out")
    log_path = _get(args, cfg, "log")
    init_loc = _get(args, cfg, "init-from-loc")
    init_glo = _get(args, cfg, "init-from-glo")
    if (init_loc is None) != (init_glo is None):
        raise CliError("--init-from-loc and --init-from-glo must be given together")
    scheme = _get(args, cfg, "scheme", choices=("glo", "loc", "hyb"))
    if init_loc is not None:
        if scheme is None:
            scheme = "hyb"
        elif scheme != "hyb":
            raise CliError("warm-start initialization implies --scheme hyb")
        _require_file(init_loc, "init-from-loc")
        _require_file(init_glo, "init-from-glo")
    scheme = _require(scheme, "scheme")

    config = TrainConfig(
        lr=_get(args, cfg, "lr", 0.1, float),
        epochs=_get(args, cfg, "epochs", 10, int, minimum=1),
        batch_size=_get(args, cfg, "batch-size", 16, int, minimum=1),
        clip_norm=_get(args, cfg, "clip-norm", 1.0, float),
        max_response_len=_get(args, cfg, "max-response-len", 30, int, minimum=1),
    )
    if not (math.isfinite(config.lr) and config.lr >= 0):
        raise CliError(f"lr must be a finite number >= 0, got {config.lr}")
    if config.clip_norm is not None and not (math.isfinite(config.clip_norm)
                                             and config.clip_norm > 0):
        raise CliError(f"clip-norm must be a finite number > 0, got {config.clip_norm}")
    precision = _get(args, cfg, "precision", 8, int, choices=(4, 8))

    vocabs = _load_vocabs(args, cfg)
    usable = _usable_pairs(load_pairs(pairs_path), "train")
    if not usable:
        raise CliError("no usable training pairs")

    rng = Rng(args.seed)
    if init_loc is not None:
        params, provenance = init_hybrid_from_pretrained(
            load_checkpoint(init_loc), load_checkpoint(init_glo), rng)
        _check_vocab_sizes(params, *vocabs)
        for field, width in _widths(args, cfg).items():
            if width is not None and width != getattr(params.dims, field):
                raise CliError(f"{_DIM_FLAGS[field]} {width} disagrees with the source "
                               f"checkpoints' {field} {getattr(params.dims, field)}")
        tally = {}
        for origin in provenance.values():
            tally[origin] = tally.get(origin, 0) + 1
        logger.info("train: warm-start tensors %s",
                    ", ".join(f"{k}={v}" for k, v in sorted(tally.items())))
    else:
        dims = Dims(**_widths(args, cfg, (64, 32, 64, 32, 64)),
                    v_post=len(vocabs[0]), v_resp=len(vocabs[1]))
        params = init_params(scheme, dims, rng)

    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        history = train(params, usable, vocabs, config, rng, log_stream=log_fh)
    finally:
        if log_fh is not None:
            log_fh.close()
    for epoch, nll, ppl in history:
        logger.info("epoch %d: nll %.6f ppl %.6f", epoch, nll, ppl)
    save_checkpoint(params, out_path, precision=precision)
    final = history[-1]
    print(f"epochs\t{final[0]}")
    print(f"final_mean_nll\t{_FMT % final[1]}")
    print(f"final_perplexity\t{_FMT % final[2]}")
    return 0


def _read_posts(args, cfg):
    from .corpus import _open_utf8

    post_text = _get(args, cfg, "post")
    posts_file = _get(args, cfg, "posts-file")
    if (post_text is None) == (posts_file is None):
        raise CliError("give exactly one of --post or --posts-file")
    if post_text is not None:
        tokens = post_text.split()
        if not tokens:
            raise CliError("--post must contain at least one token")
        return [tokens], False
    _require_file(posts_file, "posts-file")
    with _open_utf8(posts_file) as fh:
        posts = [tokens for tokens in map(str.split, fh) if tokens]
    if not posts:
        raise CliError(f"no posts found in {posts_file}")
    return posts, True


# Rows of one decoding chunk: a chunk of posts-file posts is searched
# together, so its score buffer holds up to this many rows of v_resp (or one
# post's beam, when that is wider).
_CHUNK_ROWS = 512


def _cmd_generate(args, cfg, multi=False):
    from .corpus import encode
    from .decoding import beam_search_posts, first_token_best
    from .model import load_checkpoint

    ckpt_path = _require_file(_get(args, cfg, "checkpoint"), "checkpoint")
    beam = _get(args, cfg, "beam", 500 if multi else 10, int, minimum=1)
    max_len = _get(args, cfg, "max-len", 30, int, minimum=1)
    suppress_unk = _get(args, cfg, "suppress-unk", False, bool)
    out_path = _get(args, cfg, "out")
    posts, headered = _read_posts(args, cfg)
    post_vocab, resp_vocab = _load_vocabs(args, cfg)

    params = load_checkpoint(ckpt_path)
    _check_vocab_sizes(params, post_vocab, resp_vocab)

    # a search over no posts refuses a model with nothing to emit before --out opens
    beam_search_posts(params, [], beam, max_len, suppress_unk)
    chunk = max(1, _CHUNK_ROWS // beam)
    stream, owned = _out_stream(out_path)
    try:
        for start in range(0, len(posts), chunk):
            batch = posts[start:start + chunk]
            results = beam_search_posts(params, [encode(tokens, post_vocab) for tokens in batch],
                                        beam, max_len, suppress_unk)
            for tokens, hyps in zip(batch, results):
                if multi:
                    hyps = first_token_best(hyps)
                if headered:
                    stream.write("post\t" + " ".join(tokens) + "\n")
                for rank, (resp_ids, log_prob) in enumerate(hyps, start=1):
                    words = " ".join(resp_vocab.decode(resp_ids))
                    stream.write(f"{rank}\t{_FMT % log_prob}\t{words}\n")
    finally:
        if owned:
            stream.close()
    return 0


def _cmd_perplexity(args, cfg):
    from .corpus import load_pairs
    from .model import load_checkpoint
    from .training import corpus_perplexity

    ckpt_path = _require_file(_get(args, cfg, "checkpoint"), "checkpoint")
    pairs_path = _require_file(_get(args, cfg, "pairs"), "pairs")
    batch_size = _get(args, cfg, "batch-size", 32, int, minimum=1)
    max_len = _get(args, cfg, "max-response-len", None, int, minimum=1)
    vocabs = _load_vocabs(args, cfg)
    params = load_checkpoint(ckpt_path)
    _check_vocab_sizes(params, *vocabs)
    pairs = _usable_pairs(load_pairs(pairs_path), "perplexity")
    if not pairs:
        raise CliError("no usable pairs to evaluate")
    nll, ppl = corpus_perplexity(params, pairs, vocabs, batch_size, max_len)
    print(f"mean_nll\t{_FMT % nll}")
    print(f"perplexity\t{_FMT % ppl}")
    return 0


def _synthetic_batch(rng, vocab_size, batch, post_len, resp_len):
    from .corpus import BOS_ID, EOS_ID, UNK_ID, _pack

    first_content = UNK_ID + 1
    post_rows, resp_rows = [], []
    for _ in range(batch):
        n_post = rng.randrange(post_len) + 1
        n_resp = rng.randrange(resp_len) + 1
        post_rows.append([first_content + rng.randrange(vocab_size - first_content)
                          for _ in range(n_post)])
        resp_rows.append([BOS_ID] + [first_content + rng.randrange(vocab_size - first_content)
                                     for _ in range(n_resp)] + [EOS_ID])
    return _pack(post_rows, resp_rows)


def _cmd_grad_check(args, cfg):
    from .model import Dims
    from .numerics import Rng
    from .training import grad_check, init_params

    scheme = _get(args, cfg, "scheme", "all", choices=("glo", "loc", "hyb", "all"))
    schemes = ("glo", "loc", "hyb") if scheme == "all" else (scheme,)
    vocab_size = _get(args, cfg, "vocab-size", 12, int, minimum=5)
    dims = Dims(**_widths(args, cfg, (8, 6, 8, 6, 8)), v_post=vocab_size, v_resp=vocab_size)
    batch = _get(args, cfg, "batch", 3, int, minimum=1)
    eps = _get(args, cfg, "eps", 1e-5, float)
    tol = _get(args, cfg, "tol", 1e-4, float)

    all_ok = True
    for name in schemes:
        rng = Rng(args.seed)
        # A wide init keeps every gradient entry well above the
        # finite-difference noise floor (~1e-11 with eps = 1e-5); near the
        # zero-weight linearization point the gate gradients shrink to the
        # same order as the roundoff in the loss and the per-entry relative
        # metric reports noise instead of disagreement.
        params = init_params(name, dims, rng, low=-0.8, high=0.8)
        batch_data = _synthetic_batch(rng, vocab_size, batch, post_len=4, resp_len=3)
        ok, report = grad_check(params, batch_data, eps=eps, tol=tol)
        for tensor_name, err in report.items():
            status = "ok" if err <= tol else "FAIL"
            print(f"{name}\t{tensor_name}\t{err:.3e}\t{status}")
        worst = max(report.values())
        print(f"{name}\tworst\t{worst:.3e}\t{'ok' if ok else 'FAIL'}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def _cmd_kappa(args, cfg):
    from .evalstats import fleiss_kappa, load_annotations_csv, score_summary

    path = _require_file(_get(args, cfg, "annotations"), "annotations")
    table = load_annotations_csv(path)
    kappa = fleiss_kappa(table)
    mean, fractions = score_summary(table)
    print(f"items\t{table.n_items}")
    print(f"raters\t{table.n_raters}")
    print(f"kappa\t{_FMT % kappa}")
    print(f"mean_score\t{_FMT % mean}")
    for category, fraction in zip(table.categories, fractions):
        print(f"fraction\t{category}\t{_FMT % fraction}")
    return 0


def _cmd_friedman(args, cfg):
    from .evalstats import friedman_test, load_scores_csv

    path = _require_file(_get(args, cfg, "scores"), "scores")
    names, matrix = load_scores_csv(path)
    statistic, dof, p_value, avg_ranks = friedman_test(matrix)
    print(f"statistic\t{_FMT % statistic}")
    print(f"dof\t{dof}")
    print(f"p_value\t{p_value:.10g}")
    for name, rank in zip(names, avg_ranks):
        print(f"avg_rank\t{name}\t{_FMT % rank}")
    return 0


def _cmd_inspect(args, cfg):
    from .model import load_checkpoint
    from .numerics import _global_norm

    path = _require_file(_get(args, cfg, "checkpoint"), "checkpoint")
    params = load_checkpoint(path)
    print(f"scheme\t{params.scheme}")
    for key, value in dataclasses.asdict(params.dims).items():
        print(f"{key}\t{value}")
    total = 0
    for name, arr in params.named_tensors().items():
        shape = "x".join(str(s) for s in arr.shape)
        scale, root = _global_norm([arr])
        print(f"tensor\t{name}\t{shape}\t{scale * root:.6e}")
        total += arr.size
    print(f"parameters\t{total}")
    return 0


_WIDTH_FLAGS = " ".join(_DIM_FLAGS.values())
_GENERATE_FLAGS = "checkpoint post-vocab resp-vocab post posts-file beam max-len suppress-unk out"

# Every subcommand: handler, help line and flag names. A flag's type, range,
# choices and default live in its handler's _get call.
_COMMANDS = {
    "clean": (_cmd_clean, "apply corpus cleaning rules to a pair file",
              "pairs out stoplist min-response-tokens max-urls max-duplicate-fanout "
              "per-post-cap"),
    "build-vocab": (_cmd_build_vocab, "build a frequency-capped vocabulary for one side",
                    "pairs side out cap"),
    "train": (_cmd_train, "train a model",
              "pairs post-vocab resp-vocab scheme out log epochs lr batch-size clip-norm "
              f"max-response-len precision {_WIDTH_FLAGS} init-from-loc init-from-glo"),
    "generate": (lambda a, c: _cmd_generate(a, c, multi=False),
                 "ranked beam-search responses", _GENERATE_FLAGS),
    "multi-generate": (lambda a, c: _cmd_generate(a, c, multi=True),
                       "best response per distinct first word", _GENERATE_FLAGS),
    "perplexity": (_cmd_perplexity, "evaluate mean NLL / perplexity on a pair file",
                   "checkpoint pairs post-vocab resp-vocab batch-size max-response-len"),
    "grad-check": (_cmd_grad_check, "finite-difference check of the analytic gradients",
                   f"scheme vocab-size batch eps tol {_WIDTH_FLAGS}"),
    "kappa": (_cmd_kappa, "Fleiss' kappa over an annotation CSV", "annotations"),
    "friedman": (_cmd_friedman, "Friedman rank test over a score-matrix CSV", "scores"),
    "inspect-checkpoint": (_cmd_inspect, "print checkpoint dims and tensor table",
                           "checkpoint"),
}

# Flags valid on every subcommand; main resolves all but --config.
_COMMON = {
    "config": "flat key = value settings file",
    "seed": "random seed (default 0)",
    "threads": "numeric-library thread cap",
    "deterministic": "verification mode: single-threaded numerics",
    "quiet": "suppress stderr logs",
}
_SWITCHES = ("deterministic", "quiet", "suppress-unk")
_SETTINGS = frozenset(_COMMON).union(*(flags.split() for _, _, flags in _COMMANDS.values()))


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes a negative number written with an
    exponent, such as -1e-5, as a flag's value (argparse's own matcher knows
    only -N and -N.N and reads -1e-5 as an unknown option), and reports its
    own errors as one ``error: ...`` line with exit code 1 instead of its
    usage text with exit code 2. Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        print(f"error: {' '.join(message.splitlines())}", file=sys.stderr)
        raise SystemExit(1)

    def add_flag(self, flag, help_line=None):
        if flag in _SWITCHES:
            self.add_argument(f"--{flag}", action="store_true", default=None,
                              help=help_line)
        else:
            self.add_argument(f"--{flag}", help=help_line,
                              metavar="CKPT" if flag.startswith("init-from-") else None)


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    for flag, help_line in _COMMON.items():
        common.add_flag(flag, help_line)
    parser = _Parser(
        prog="replygen",
        description="GRU encoder-decoder response generation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_line)
        for flag in flags.split():
            p.add_flag(flag)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config) if args.config else {}
        deterministic = _get(args, cfg, "deterministic", False, bool)
        threads = _get(args, cfg, "threads", None, int, minimum=1)
        args.seed = _get(args, cfg, "seed", 0, int)
        quiet = _get(args, cfg, "quiet", False, bool)
        if deterministic:
            threads = 1
        if threads is not None:
            _limit_threads(threads)
        logging.basicConfig(stream=sys.stderr,
                            level=logging.WARNING if quiet else logging.INFO,
                            format="%(message)s")
        return _COMMANDS[args.command][0](args, cfg)
    except (CliError, ValueError, OSError, RuntimeError) as exc:
        message = " ".join(str(exc).splitlines()) or exc.__class__.__name__
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
