"""Command-line entry point tying corpus tools, training, decoding, and
evaluation statistics together.

Usage: replygen [--config FILE] <subcommand> [flags]

Common flags (valid on every subcommand): --config, --seed, --threads,
--deterministic, --quiet. A config file is flat ``key = value`` text whose
keys are the long flag names without the leading dashes; explicit flags
override config values, which override built-in defaults. Results go to
stdout, logs to stderr; every failure is a single ``error: ...`` line on
stderr with a nonzero exit.

Heavy imports happen inside the subcommand handlers so that --threads and
--deterministic can pin the numeric libraries' thread counts through the
environment before they load.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

logger = logging.getLogger("replygen")

_FMT = "%.10f"


class CliError(Exception):
    """A user-facing configuration or input problem."""


# --- configuration -----------------------------------------------------------


def _load_config(path):
    """Parse a flat key = value config file ('#' starts a comment line)."""
    if not os.path.isfile(path):
        raise CliError(f"config file not found: {path}")
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise CliError(f"{path}:{lineno}: expected 'key = value'")
            key, value = text.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _get(args, cfg, key, default=None, cast=str, minimum=None, choices=None):
    """Resolve one setting: explicit flag > config file > default."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is None:
        raw = cfg.get(key)
        if raw is None:
            value = default
        else:
            try:
                value = _parse_bool(raw) if cast is bool else cast(raw)
            except ValueError:
                raise CliError(f"config key {key!r}: cannot parse {raw!r}") from None
    if value is not None and minimum is not None and value < minimum:
        raise CliError(f"{key} must be >= {minimum}, got {value}")
    if value is not None and choices is not None and value not in choices:
        raise CliError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
    return value


def _require(value, key):
    if value is None:
        raise CliError(f"missing required setting: {key}")
    return value


def _require_file(path, what):
    if path is None:
        raise CliError(f"missing required setting: {what}")
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
    from .corpus import CleanConfig, DEFAULT_STOPLIST, clean_corpus, load_pairs

    pairs_path = _require_file(_get(args, cfg, "pairs"), "pairs")
    out_path = _require(_get(args, cfg, "out"), "out")
    stoplist = DEFAULT_STOPLIST
    stop_path = _get(args, cfg, "stoplist")
    if stop_path is not None:
        _require_file(stop_path, "stoplist")
        with open(stop_path, encoding="utf-8") as fh:
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
    if config.lr < 0:
        raise CliError(f"lr must be >= 0, got {config.lr}")
    if config.clip_norm is not None and config.clip_norm <= 0:
        raise CliError(f"clip-norm must be > 0, got {config.clip_norm}")
    precision = _get(args, cfg, "precision", 8, int, choices=None)
    if precision not in (4, 8):
        raise CliError(f"precision must be 4 or 8, got {precision}")
    seed = _get(args, cfg, "seed", 0, int)

    vocabs = _load_vocabs(args, cfg)
    usable = _usable_pairs(load_pairs(pairs_path), "train")
    if not usable:
        raise CliError("no usable training pairs")

    rng = Rng(seed)
    if init_loc is not None:
        params, provenance = init_hybrid_from_pretrained(
            load_checkpoint(init_loc), load_checkpoint(init_glo), rng)
        tally = {}
        for origin in provenance.values():
            tally[origin] = tally.get(origin, 0) + 1
        logger.info("train: warm-start tensors %s",
                    ", ".join(f"{k}={v}" for k, v in sorted(tally.items())))
    else:
        dims = Dims(
            d_h=_get(args, cfg, "d-h", 64, int, minimum=1),
            d_emb=_get(args, cfg, "d-emb", 32, int, minimum=1),
            d_a=_get(args, cfg, "d-a", 64, int, minimum=1),
            d_L=_get(args, cfg, "d-l", 32, int, minimum=1),
            d_r=_get(args, cfg, "d-r", 64, int, minimum=1),
            v_post=len(vocabs[0]),
            v_resp=len(vocabs[1]),
        )
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
    posts = []
    with open(posts_file, encoding="utf-8") as fh:
        for line in fh:
            tokens = line.split()
            if tokens:
                posts.append(tokens)
    if not posts:
        raise CliError(f"no posts found in {posts_file}")
    return posts, True


def _cmd_generate(args, cfg, multi=False):
    from .corpus import encode
    from .decoding import beam_search, multi_response
    from .model import load_checkpoint

    ckpt_path = _require_file(_get(args, cfg, "checkpoint"), "checkpoint")
    beam = _get(args, cfg, "beam", 500 if multi else 10, int, minimum=1)
    max_len = _get(args, cfg, "max-len", 30, int, minimum=1)
    suppress_unk = bool(_get(args, cfg, "suppress-unk", False, bool))
    out_path = _get(args, cfg, "out")
    posts, headered = _read_posts(args, cfg)
    post_vocab, resp_vocab = _load_vocabs(args, cfg)

    params = load_checkpoint(ckpt_path)
    _check_vocab_sizes(params, post_vocab, resp_vocab)

    stream, owned = _out_stream(out_path)
    try:
        for tokens in posts:
            ids = encode(tokens, post_vocab)
            if multi:
                hyps = multi_response(params, ids, beam, max_len, suppress_unk)
            else:
                hyps = beam_search(params, ids, beam, max_len, suppress_unk)
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
    max_len = _get(args, cfg, "max-response-len", None, int)
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
    if vocab_size <= first_content:
        raise CliError(f"vocab-size must be > {first_content}")
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
    dims = Dims(
        d_h=_get(args, cfg, "d-h", 8, int, minimum=1),
        d_emb=_get(args, cfg, "d-emb", 6, int, minimum=1),
        d_a=_get(args, cfg, "d-a", 8, int, minimum=1),
        d_L=_get(args, cfg, "d-l", 6, int, minimum=1),
        d_r=_get(args, cfg, "d-r", 8, int, minimum=1),
        v_post=vocab_size,
        v_resp=vocab_size,
    )
    batch = _get(args, cfg, "batch", 3, int, minimum=1)
    eps = _get(args, cfg, "eps", 1e-5, float)
    tol = _get(args, cfg, "tol", 1e-4, float)
    seed = _get(args, cfg, "seed", 0, int)

    all_ok = True
    for name in schemes:
        rng = Rng(seed)
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
    import numpy as np

    from .model import load_checkpoint

    path = _require_file(_get(args, cfg, "checkpoint"), "checkpoint")
    params = load_checkpoint(path)
    d = params.dims
    print(f"scheme\t{params.scheme}")
    for key in ("d_h", "d_emb", "d_a", "d_L", "d_r", "v_post", "v_resp"):
        print(f"{key}\t{getattr(d, key)}")
    total = 0
    for name, arr in params.named_tensors().items():
        shape = "x".join(str(s) for s in arr.shape)
        print(f"tensor\t{name}\t{shape}\t{float(np.linalg.norm(arr)):.6e}")
        total += arr.size
    print(f"parameters\t{total}")
    return 0


_COMMANDS = {
    "clean": _cmd_clean,
    "build-vocab": _cmd_build_vocab,
    "train": _cmd_train,
    "generate": lambda a, c: _cmd_generate(a, c, multi=False),
    "multi-generate": lambda a, c: _cmd_generate(a, c, multi=True),
    "perplexity": _cmd_perplexity,
    "grad-check": _cmd_grad_check,
    "kappa": _cmd_kappa,
    "friedman": _cmd_friedman,
    "inspect-checkpoint": _cmd_inspect,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value settings file")
    common.add_argument("--seed", type=int, help="random seed (default 0)")
    common.add_argument("--threads", type=int, help="numeric-library thread cap")
    common.add_argument("--deterministic", action="store_true", default=None,
                        help="verification mode: single-threaded numerics")
    common.add_argument("--quiet", action="store_true", default=None,
                        help="suppress stderr logs")

    parser = argparse.ArgumentParser(
        prog="replygen",
        description="GRU encoder-decoder response generation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clean", parents=[common],
                       help="apply corpus cleaning rules to a pair file")
    p.add_argument("--pairs")
    p.add_argument("--out")
    p.add_argument("--stoplist")
    p.add_argument("--min-response-tokens", type=int)
    p.add_argument("--max-urls", type=int)
    p.add_argument("--max-duplicate-fanout", type=int)
    p.add_argument("--per-post-cap", type=int)

    p = sub.add_parser("build-vocab", parents=[common],
                       help="build a frequency-capped vocabulary for one side")
    p.add_argument("--pairs")
    p.add_argument("--side", choices=("post", "response"))
    p.add_argument("--out")
    p.add_argument("--cap", type=int)

    p = sub.add_parser("train", parents=[common], help="train a model")
    p.add_argument("--pairs")
    p.add_argument("--post-vocab")
    p.add_argument("--resp-vocab")
    p.add_argument("--scheme", choices=("glo", "loc", "hyb"))
    p.add_argument("--out")
    p.add_argument("--log")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--clip-norm", type=float)
    p.add_argument("--max-response-len", type=int)
    p.add_argument("--precision", type=int, choices=(4, 8))
    p.add_argument("--d-h", type=int)
    p.add_argument("--d-emb", type=int)
    p.add_argument("--d-a", type=int)
    p.add_argument("--d-l", type=int)
    p.add_argument("--d-r", type=int)
    p.add_argument("--init-from-loc", metavar="CKPT")
    p.add_argument("--init-from-glo", metavar="CKPT")

    for cmd, multi in (("generate", False), ("multi-generate", True)):
        p = sub.add_parser(cmd, parents=[common],
                           help=("best response per distinct first word" if multi
                                 else "ranked beam-search responses"))
        p.add_argument("--checkpoint")
        p.add_argument("--post-vocab")
        p.add_argument("--resp-vocab")
        p.add_argument("--post")
        p.add_argument("--posts-file")
        p.add_argument("--beam", type=int)
        p.add_argument("--max-len", type=int)
        p.add_argument("--suppress-unk", action="store_true", default=None)
        p.add_argument("--out")

    p = sub.add_parser("perplexity", parents=[common],
                       help="evaluate mean NLL / perplexity on a pair file")
    p.add_argument("--checkpoint")
    p.add_argument("--pairs")
    p.add_argument("--post-vocab")
    p.add_argument("--resp-vocab")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--max-response-len", type=int)

    p = sub.add_parser("grad-check", parents=[common],
                       help="finite-difference check of the analytic gradients")
    p.add_argument("--scheme", choices=("glo", "loc", "hyb", "all"))
    p.add_argument("--vocab-size", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--d-h", type=int)
    p.add_argument("--d-emb", type=int)
    p.add_argument("--d-a", type=int)
    p.add_argument("--d-l", type=int)
    p.add_argument("--d-r", type=int)

    p = sub.add_parser("kappa", parents=[common],
                       help="Fleiss' kappa over an annotation CSV")
    p.add_argument("--annotations")

    p = sub.add_parser("friedman", parents=[common],
                       help="Friedman rank test over a score-matrix CSV")
    p.add_argument("--scores")

    p = sub.add_parser("inspect-checkpoint", parents=[common],
                       help="print checkpoint dims and tensor table")
    p.add_argument("--checkpoint")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config) if args.config else {}
        deterministic = bool(_get(args, cfg, "deterministic", False, bool))
        threads = _get(args, cfg, "threads", None, int, minimum=1)
        if deterministic:
            threads = 1
        if threads is not None:
            _limit_threads(threads)
        quiet = bool(_get(args, cfg, "quiet", False, bool))
        logging.basicConfig(stream=sys.stderr,
                            level=logging.WARNING if quiet else logging.INFO,
                            format="%(message)s")
        return _COMMANDS[args.command](args, cfg)
    except (CliError, ValueError, OSError, RuntimeError) as exc:
        message = str(exc).replace("\n", " ") or exc.__class__.__name__
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
