"""Workloads, set-up and timed phases of the replygen benchmark.

run.py imports this module after pinning BLAS to one thread. Every timing is
taken here, around calls into replygen's public functions; nothing under
src/ is instrumented.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import checks
import layers
from replygen import cli, corpus, decoding, model, training
from replygen.corpus import EOS_ID
from replygen.model import Dims
from replygen.numerics import Rng

BATCH = 32
MAX_LEN = 14          # response cap of the corpus and of every decode
BEAM = 10
MULTI_BEAM = 500
LR = 0.1
CLIP_NORM = 1.0
# Added to b_o[EOS] in the set-up checkpoint. The end marker then never wins
# a top-k cut, so every hypothesis runs to MAX_LEN and each post costs the
# same decoder steps whatever the weights (see README).
EOS_LOGIT_OFFSET = -50.0

# Corpus shape. Each block of BATCH pairs has post and response lengths that
# are a shuffle of these fixed lists, so every training and scoring batch
# holds the same number of target tokens whatever the seed.
POST_LENS = np.rint(np.linspace(1, 12, BATCH)).astype(int)
RESP_LENS = np.rint(np.linspace(2, 14, BATCH)).astype(int)
TRIVIAL_PER_BLOCK = 2   # one-token responses per block, dropped by clean_corpus
CORPUS_BLOCKS = 200     # enough distinct tokens to fill an 8000-word vocabulary
HELDOUT_BLOCKS = 64
UNIVERSE = 30000
ZIPF_P = 1.0 / np.arange(1, UNIVERSE + 1)
ZIPF_P /= ZIPF_P.sum()
MULTI_POST_LEN = 8      # multi decodes equal-length posts, so its median is steady
CLI_POSTS = 5           # posts per `generate --posts-file` call
RESCORE_POSTS = 5       # posts per decode phase whose best and worst hypotheses are re-scored

# Share of --seconds each timed phase runs for, and the least work it does
# whatever the budget: the p90 needs 100 posts, a median 3 samples, and the
# cheaper mid-workload units a few more, so that they sample more of the run.
# The shares are about the minimums' cost on glo-mid. hyb-mid's minimums
# cost more than their shares, so its runs take longer than --seconds.
PHASES = {
    "setup": (0.34, 3),
    "train": (0.09, 4),
    "score": (0.05, 8),
    "generate_one": (0.27, 100),
    "generate_file": (0.05, 4),
    "multi": (0.20, 3),
}

_MID = dict(d_h=256, d_emb=128, d_a=256, d_L=128, d_r=256, v_post=8000, v_resp=8000)


@dataclass(frozen=True)
class Workload:
    scheme: str
    dims: Dims


WORKLOADS = {
    "glo-mid": Workload("glo", Dims(**_MID)),
    "hyb-mid": Workload("hyb", Dims(**_MID)),
    "loc-small": Workload("loc", Dims(d_h=32, d_emb=16, d_a=32, d_L=16, d_r=32,
                                      v_post=500, v_resp=500)),
}


# --- tracing -----------------------------------------------------------------


class Span:
    __slots__ = ("id", "name", "request", "parent", "start", "end")

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Times every span; keeps them (name, start, end, parent, request) only
    when enabled, so the untraced run stores nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, request=None):
        sp = Span()
        sp.id, sp.name, sp.request = len(self.spans), name, request
        sp.parent = self._open[-1].id if self._open else None
        if self.enabled:
            self.spans.append(sp)
            self._open.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            if self.enabled:
                self._open.pop()

    def seconds(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    @contextmanager
    def wrap(self, module, attr: str, on_result=None):
        """While open, calls to module.attr (also those made inside replygen)
        are recorded as spans. Only the traced run uses this."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def traced(*args, **kwargs):
            with self.span(name):
                out = original(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)


class Tally:
    """Operations attempted and operations whose output check failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool = True) -> None:
        self.attempted += 1
        self.failed += not ok


# --- inputs --------------------------------------------------------------------


def synth_pairs(rng, blocks: int, trivial: int) -> list[tuple[str, str]]:
    """Zipf-distributed (post, response) texts, `blocks` blocks of BATCH pairs,
    each block followed by `trivial` pairs with a one-token response."""
    per_block = BATCH + trivial
    plens = np.empty((blocks, per_block), dtype=int)
    rlens = np.empty((blocks, per_block), dtype=int)
    for b in range(blocks):
        plens[b, :BATCH] = rng.permutation(POST_LENS)
        rlens[b, :BATCH] = rng.permutation(RESP_LENS)
    plens[:, BATCH:] = rng.integers(1, 13, size=(blocks, trivial))
    rlens[:, BATCH:] = 1
    plens, rlens = plens.ravel(), rlens.ravel()
    post_ranks = rng.choice(UNIVERSE, size=int(plens.sum()), p=ZIPF_P)
    resp_ranks = rng.choice(UNIVERSE, size=int(rlens.sum()), p=ZIPF_P)
    post_ends, resp_ends = np.cumsum(plens), np.cumsum(rlens)
    pairs = []
    for i in range(len(plens)):
        p = post_ranks[post_ends[i] - plens[i]:post_ends[i]]
        r = resp_ranks[resp_ends[i] - rlens[i]:resp_ends[i]]
        pairs.append((" ".join(f"p{t}" for t in p), " ".join(f"r{t}" for t in r)))
    return pairs


def heldout_pairs(seed: int) -> list[corpus.PostResponsePair]:
    rng = np.random.default_rng([seed, 1])
    return [corpus.PostResponsePair(p.split(), r.split())
            for p, r in synth_pairs(rng, HELDOUT_BLOCKS, 0)]


def target_tokens(pairs) -> int:
    """Target tokens train and score see: capped content tokens plus </s>."""
    return sum(min(len(p.response), MAX_LEN) + 1 for p in pairs)


def chunk(pairs, i: int, size: int = BATCH):
    """The i-th run of `size` pairs, wrapping around the list."""
    start = (i * size) % len(pairs)
    return [pairs[(start + j) % len(pairs)] for j in range(size)]


@dataclass
class SetUp:
    pool: list            # cleaned training pairs, in corpus order
    vocabs: tuple
    post_vocab_path: Path
    resp_vocab_path: Path
    ckpt_path: Path
    params: model.ModelParams  # loaded back from ckpt_path


def set_up(wl: Workload, seed: int, workdir: Path, tr: Tracer) -> SetUp:
    """Corpus file to loaded checkpoint, as a user would prepare a model."""
    path = workdir / "corpus.tsv"
    with tr.span("corpus.write_tsv"):
        text = "".join(f"{p}\t{r}\n" for p, r in
                       synth_pairs(np.random.default_rng(seed), CORPUS_BLOCKS,
                                   TRIVIAL_PER_BLOCK))
        path.write_text(text, encoding="utf-8")
    with tr.span("corpus.load_pairs"):
        pairs = corpus.load_pairs(path)
    with tr.span("corpus.clean_corpus"):
        pool, _ = corpus.clean_corpus(pairs)
    vocabs = []
    for side, size, name in (("post", wl.dims.v_post, "post.vocab"),
                             ("response", wl.dims.v_resp, "resp.vocab")):
        with tr.span("corpus.build_vocab"):
            vocab, _ = corpus.build_vocab(pool, side, cap=size - len(corpus.RESERVED_TOKENS))
            vocab.save(workdir / name)
        if len(vocab) != size:
            raise RuntimeError(f"{side} vocabulary has {len(vocab)} entries, "
                               f"the workload needs {size}")
        vocabs.append(vocab)
    with tr.span("model.init_params"):
        params = model.init_params(wl.scheme, wl.dims, Rng(seed))
    params.b_o[EOS_ID] += EOS_LOGIT_OFFSET
    ckpt = workdir / "model.ckpt"
    with tr.span("model.save_checkpoint"):
        model.save_checkpoint(params, ckpt)
    with tr.span("model.load_checkpoint"):
        params = model.load_checkpoint(ckpt)
    return SetUp(pool, tuple(vocabs), workdir / "post.vocab", workdir / "resp.vocab",
                 ckpt, params)


# --- phases --------------------------------------------------------------------


class Phases:
    """The timed phases of one run. Each step method does one unit of work,
    checks its output, and returns the unit's wall time."""

    def __init__(self, wl: Workload, seed: int, workdir: Path, tr: Tracer, tally: Tally):
        self.wl, self.seed, self.workdir, self.tr, self.tally = wl, seed, workdir, tr, tally
        self.samples = {name: [] for name in PHASES}   # wall time of each unit
        self.done = dict.fromkeys(PHASES, 0)   # tokens or posts the rate phases did
        self.setup(0)
        st = self.st
        heldout = self.heldout = heldout_pairs(seed)
        self.posts = [corpus.encode(p.post, st.vocabs[0]) for p in heldout]
        self.multi_posts = [ids for ids in self.posts if len(ids) == MULTI_POST_LEN]
        self.posts_path, self.out_path = workdir / "posts.txt", workdir / "generated.tsv"
        self.rescore = functools.partial(model.sequence_log_likelihood, st.params)
        # decode phases use the set-up checkpoint; train and score a copy of it
        self.trained = model.load_checkpoint(st.ckpt_path)
        self.config = training.TrainConfig(lr=LR, epochs=1, batch_size=BATCH,
                                           clip_norm=CLIP_NORM, max_response_len=MAX_LEN)
        self.rng = Rng(seed)
        self.outputs = []      # beam_search hypotheses of posts[i]
        self.errors = []       # re-scoring gaps
        self.distinct = []     # multi_response share of the beam

    def setup(self, k: int) -> float:
        """A full set-up. The first one's files and model serve the run; the
        others, in a directory of their own, are timed only."""
        workdir = self.workdir / ("setup" if k == 0 else "setup-again")
        workdir.mkdir(exist_ok=True)
        with self.tr.span("setup", request=k) as sp:
            st = set_up(self.wl, self.seed, workdir, self.tr)
        if k == 0:
            self.st = st
        self.tally.op()
        self.samples["setup"].append(sp.seconds)
        return sp.seconds

    def train(self, i: int) -> float:
        """training.train on one batch, so the phase can stop on time."""
        pairs = chunk(self.st.pool, i)
        with self.tr.span("training.train", request=i) as sp:
            try:
                history = training.train(self.trained, pairs, self.st.vocabs,
                                         self.config, self.rng)
            except RuntimeError:  # train raises on a non-finite loss
                history = [(1, math.nan, math.nan)]
        self.tally.op(checks.finite(*(nll for _, nll, _ in history)))
        self.done["train"] += target_tokens(pairs)
        self.samples["train"].append(sp.seconds)
        return sp.seconds

    def score(self, i: int) -> float:
        pairs = chunk(self.heldout, i)
        with self.tr.span("training.corpus_perplexity", request=i) as sp:
            nll, _ = training.corpus_perplexity(self.trained, pairs, self.st.vocabs,
                                                BATCH, MAX_LEN)
        self.tally.op(checks.finite(nll))
        self.done["score"] += target_tokens(pairs)
        self.samples["score"].append(sp.seconds)
        return sp.seconds

    def generate_one(self, i: int) -> float:
        ids = self.posts[i % len(self.posts)]
        with self.tr.span("decoding.beam_search", request=i) as sp:
            hyps = decoding.beam_search(self.st.params, ids, BEAM, MAX_LEN)
        self.outputs.append(hyps)
        ok = bool(hyps) and checks.full_length(hyps, MAX_LEN)
        if i < RESCORE_POSTS:
            errs = checks.rescore_errors(self.rescore, ids, hyps, (0, -1))
            self.errors.extend(errs)
            ok = ok and checks.rescores(errs)
        self.tally.op(ok)
        self.samples["generate_one"].append(sp.seconds)
        return sp.seconds

    def generate_file_ready(self, k: int) -> bool:
        return len(self.outputs) >= (k + 1) * CLI_POSTS

    def generate_file(self, k: int) -> float:
        """The real `generate --posts-file` command, in process, on posts
        generate-one already decoded; its output must equal beam_search's."""
        idx = [(k * CLI_POSTS + j) % len(self.outputs) for j in range(CLI_POSTS)]
        posts = [self.heldout[i % len(self.heldout)].post for i in idx]
        self.posts_path.write_text("".join(" ".join(p) + "\n" for p in posts),
                                   encoding="utf-8")
        st = self.st
        argv = ["generate", "--quiet", "--checkpoint", str(st.ckpt_path),
                "--post-vocab", str(st.post_vocab_path),
                "--resp-vocab", str(st.resp_vocab_path),
                "--posts-file", str(self.posts_path), "--beam", str(BEAM),
                "--max-len", str(MAX_LEN), "--out", str(self.out_path)]
        with self.tr.span("cli.generate", request=k) as sp:
            status = cli.main(argv)
        oks = checks.generate_output_matches(self.out_path.read_text(encoding="utf-8"),
                                             posts, [self.outputs[i] for i in idx],
                                             st.vocabs[1])
        for ok in oks:
            self.tally.op(ok and status == 0)
        self.done["generate_file"] += CLI_POSTS
        self.samples["generate_file"].append(sp.seconds)
        return sp.seconds

    def multi(self, i: int) -> float:
        ids = self.multi_posts[i % len(self.multi_posts)]
        with self.tr.span("decoding.multi_response", request=i) as sp:
            hyps = decoding.multi_response(self.st.params, ids, MULTI_BEAM, MAX_LEN)
        self.distinct.append(len(hyps) / MULTI_BEAM)
        ok = (bool(hyps) and checks.first_tokens_distinct(hyps)
              and checks.full_length(hyps, MAX_LEN))
        if i < RESCORE_POSTS:
            errs = checks.rescore_errors(self.rescore, ids, hyps, (0, -1))
            self.errors.extend(errs)
            ok = ok and checks.rescores(errs)
        self.tally.op(ok)
        self.samples["multi"].append(sp.seconds)
        return sp.seconds

    def run(self, seconds: float) -> None:
        """Interleave the phases' units so each phase samples the whole run,
        not one stretch of it: the machine's speed drifts over seconds. The
        next unit goes to the ready phase least far along its target time,
        which is its share of `seconds`, or its minimum count at its mean
        unit time when that is longer. A phase stops once it has both its
        share of time and its minimum count."""
        steps = {"setup": self.setup, "train": self.train, "score": self.score,
                 "generate_one": self.generate_one, "generate_file": self.generate_file,
                 "multi": self.multi}
        ready = {"generate_file": self.generate_file_ready}
        used = {name: sum(self.samples["setup"]) if name == "setup" else 0.0
                for name in PHASES}
        count = {name: len(self.samples[name]) for name in PHASES}

        def progress(name):
            share, minimum = PHASES[name]
            if count[name] == 0:
                return -1.0
            return used[name] / max(share * seconds, minimum * used[name] / count[name])

        active = list(PHASES)
        while active:
            name = min((n for n in active if ready.get(n, lambda k: True)(count[n])),
                       key=progress)
            used[name] += steps[name](count[name])
            count[name] += 1
            share, minimum = PHASES[name]
            if count[name] >= minimum and used[name] >= share * seconds:
                active.remove(name)


# --- the run -------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, root: Path):
    """Run one workload; returns (record, result line)."""
    if not Path(model.__file__).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"replygen imported from {model.__file__}, not {root / 'src'}")
    wl = WORKLOADS[name]
    tr = Tracer(trace)
    tally = Tally()
    out_dir = root / ".perfbench"
    workdir = out_dir / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ph = Phases(wl, seed, workdir, tr, tally)
        st = ph.st
        factors = []
        traced = (tr.wrap(training, "sgd_step", factors.append) if tr.enabled
                  else nullcontext())
        with traced:
            ph.run(seconds)
        smp = ph.samples

        e2e = {
            "setup_s": (statistics.median(smp["setup"]), "s"),
            "train_tok_s": (ph.done["train"] / sum(smp["train"]), "tok/s"),
            "eval_tok_s": (ph.done["score"] / sum(smp["score"]), "tok/s"),
            "generate_ms_p50": (1e3 * np.percentile(smp["generate_one"], 50), "ms"),
            "generate_ms_p90": (1e3 * np.percentile(smp["generate_one"], 90), "ms"),
            "generate_posts_s": (ph.done["generate_file"] / sum(smp["generate_file"]),
                                 "posts/s"),
            "multi_s_per_post": (statistics.median(smp["multi"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        decode_stats = {
            "decoding.resp_len_mean": (float(np.mean([len(t) for hyps in ph.outputs
                                                      for t, _ in hyps])), "tokens"),
            "decoding.distinct_first_frac": (float(np.mean(ph.distinct)), "fraction"),
            "decoding.rescore_err_max": (max(ph.errors), "nats"),
        }
        replay_post = ph.multi_posts[0]
        work = layers.work_counts(wl.scheme, wl.dims, BATCH, int(max(POST_LENS)), MAX_LEN + 2,
                                  MULTI_BEAM, len(replay_post))
        per_layer = None
        if trace:
            per_layer = layers.measure(tr, st.params, st.pool[:BATCH], st.vocabs, seed,
                                       replay_post, (BEAM, MULTI_BEAM), MAX_LEN, CLIP_NORM,
                                       work)
            per_layer.update(decode_stats)
            per_layer["training.clip_frac"] = (
                sum(f < 1.0 for f in factors) / len(factors), "fraction")
            per_layer.update({f"traced.{k}": v for k, v in e2e.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": name,
        "scheme": wl.scheme,
        "dims": asdict(wl.dims),
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(root),
        "eos_logit_offset": EOS_LOGIT_OFFSET,
        "samples": {k: len(v) for k, v in smp.items()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "end_to_end": _metrics(e2e),
        "decoding": _metrics(decode_stats),
        "work_computed_from_tensor_shapes": work,
    }
    if per_layer is not None:
        record["per_layer"] = _metrics(per_layer)
        if wl.scheme == "glo":
            for k in layers.ATTENTION_ROWS:
                record["per_layer"][k]["note"] = layers.GLO_ATTENTION_NA
        record["layer_moves"] = layers.MOVES
    _save(out_dir / "results", record, tr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": _metrics(per_layer if trace else e2e),
    }
    return record, result


def _metrics(values: dict) -> dict:
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}


def _save(results_dir: Path, record: dict, tr: Tracer) -> None:
    """Keep the record, and the spans of a traced run, under .perfbench/results.
    A traced run also reports its difference from the untraced run of the
    same workload and seed, when that run's record is there."""
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}"
    if record["trace"]:
        untraced = results_dir / f"{stem}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["end_to_end"]
            record["tracing_overhead"] = {
                k: {"untraced": base[k]["value"], "traced": v["value"],
                    "difference": v["value"] - base[k]["value"],
                    "relative": v["value"] / base[k]["value"] - 1.0}
                for k, v in record["end_to_end"].items() if k in base}
        with open(results_dir / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for s in tr.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "request": s.request, "start": s.start,
                                     "end": s.end}) + "\n")
    (results_dir / f"{stem}-trace{record['trace']}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"
