"""Post-response corpus handling: ingestion, cleaning, vocabularies, batching.

Input is whitespace-pre-tokenized text, one pair per line:
``post tokens<TAB>response tokens``. Cleaning applies three rules in order:
trivial responses, advertisement heuristics, and a per-post response cap.
"""

from __future__ import annotations

import contextlib
import logging
import re
from dataclasses import dataclass, field

import numpy as np

from .numerics import Rng

logger = logging.getLogger(__name__)

__all__ = [
    "PAD_ID",
    "BOS_ID",
    "EOS_ID",
    "UNK_ID",
    "RESERVED_TOKENS",
    "DEFAULT_STOPLIST",
    "CorpusFormatError",
    "PostResponsePair",
    "Vocabulary",
    "CleanConfig",
    "Batch",
    "load_pairs",
    "clean_corpus",
    "build_vocab",
    "encode",
    "make_batches",
]

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<s>", "</s>", "<unk>")

#: Editable default list of contentless one-liner responses.
DEFAULT_STOPLIST = frozenset({
    "wow", "lol", "haha", "hahaha", "hehe", "ha", "hmm", "omg",
    "+1", "up", "cool", "nice", "good", "ok", "okay", "yes", "no",
    "...", "!!!", "???",
})

_URL_RE = re.compile(r"(?i)^(https?://|www\.)\S*$")


class CorpusFormatError(ValueError):
    """An input text file violates its documented format or is not UTF-8."""


@contextlib.contextmanager
def _open_utf8(path, newline=None):
    """Open a UTF-8 text file for reading. A decode error while the block
    reads it is a CorpusFormatError that names the file."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(f"{path}: not valid UTF-8 ({exc})") from exc


@dataclass
class PostResponsePair:
    post: list[str]
    response: list[str]


@dataclass
class Vocabulary:
    """Token/id bijection for one side of the corpus.

    Ids 0..3 are the reserved tokens ``<pad>``, ``<s>``, ``</s>``, ``<unk>``
    in that order; content tokens follow.
    """

    side: str  # "post" or "response"
    tokens: list[str]
    index: dict[str, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.tokens)

    def id_for(self, token: str) -> int:
        """The token's id; UNK_ID for an unknown token and for the reserved
        spellings, so text never yields a padding or a begin or end marker."""
        return max(self.index.get(token, UNK_ID), UNK_ID)

    def decode(self, ids) -> list[str]:
        return [self.tokens[i] for i in ids]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for token in self.tokens:
                fh.write(token + "\n")

    @classmethod
    def from_tokens(cls, side: str, content_tokens) -> "Vocabulary":
        tokens = list(RESERVED_TOKENS) + list(content_tokens)
        index = {tok: i for i, tok in enumerate(tokens)}
        if len(index) != len(tokens):  # a repeated token maps to its last id
            dup = next(tok for i, tok in enumerate(tokens) if index[tok] != i)
            raise CorpusFormatError(f"duplicate token {dup!r} in vocabulary")
        return cls(side=side, tokens=tokens, index=index)

    @classmethod
    def load(cls, path, side: str = "post") -> "Vocabulary":
        """Read one token per line, the reserved tokens first. A line that is
        not exactly one whitespace-free token, or repeats an earlier line, is
        refused naming FILE:LINE, so a decoded word never holds a separator."""
        index = {}
        with _open_utf8(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                token = line.rstrip("\n")
                if token.split() != [token]:
                    raise CorpusFormatError(
                        f"{path}:{lineno}: expected one token without whitespace, "
                        f"got {token!r}")
                if token in index:
                    raise CorpusFormatError(f"{path}:{lineno}: duplicate token {token!r}")
                index[token] = len(index)
        tokens = list(index)
        if tuple(tokens[:4]) != RESERVED_TOKENS:
            raise CorpusFormatError(
                f"{path}: first four lines must be {' '.join(RESERVED_TOKENS)}")
        return cls(side=side, tokens=tokens, index=index)


@dataclass
class CleanConfig:
    """Knobs for the corpus cleaning rules.

    A response is trivial when it has fewer than ``min_response_tokens``
    tokens or its full text is on the stoplist. A response is treated as an
    advertisement when it carries more than ``max_urls`` URL-like tokens, or
    when the identical response text is attached to more than
    ``max_duplicate_fanout`` distinct posts. Each post keeps only its first
    ``per_post_cap`` responses in input order.
    """

    trivial_stoplist: frozenset = DEFAULT_STOPLIST
    min_response_tokens: int = 2
    max_urls: int = 0
    max_duplicate_fanout: int = 10
    per_post_cap: int = 30


@dataclass
class Batch:
    """Padded id matrices plus 0/1 masks for one minibatch.

    Response rows carry the BOS prefix and EOS suffix. A mask row is 1 on
    the row's tokens and 0 on the padding after them; it is the batch's one
    record of where each row ends, and PAD appears only where it is 0.
    """

    post_ids: np.ndarray      # (B, Tp) int64
    post_mask: np.ndarray     # (B, Tp) float64, 0/1
    resp_ids: np.ndarray      # (B, Tr) int64, BOS ... EOS then PAD
    resp_mask: np.ndarray     # (B, Tr) float64, 0/1

    def __len__(self) -> int:
        return self.post_ids.shape[0]


def load_pairs(path) -> list[PostResponsePair]:
    """Read a TSV pair file; one pair per nonblank line, file order kept.

    Blank lines are skipped and their count logged. A line without a TAB is
    an error naming the line number. A side with no tokens loads as an empty
    list; the train and perplexity commands drop such pairs.
    """
    pairs = []
    blank = 0
    with _open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                blank += 1
                continue
            if "\t" not in line:
                raise CorpusFormatError(f"{path}:{lineno}: missing TAB separator")
            post_text, resp_text = line.split("\t", 1)
            pairs.append(PostResponsePair(post_text.split(), resp_text.split()))
    if blank:
        logger.info("load_pairs: skipped %d blank line(s) in %s", blank, path)
    return pairs


def _is_url(token: str) -> bool:
    return bool(_URL_RE.match(token))


def clean_corpus(pairs, config: CleanConfig | None = None):
    """Apply the cleaning rules; returns (kept pairs, per-rule removal counts).

    Rules run in order: trivial responses, URL-bearing ads, mass-duplicated
    responses (fan-out over distinct posts), then the first-N cap per post.
    The result is idempotent under re-application.
    """
    config = config or CleanConfig()
    counts = {"empty_post": 0, "trivial": 0, "ad_url": 0, "ad_fanout": 0, "post_cap": 0}

    survivors = []
    for pair in pairs:
        if not pair.post:
            counts["empty_post"] += 1
            continue
        text = " ".join(pair.response)
        if len(pair.response) < config.min_response_tokens or text in config.trivial_stoplist:
            counts["trivial"] += 1
            continue
        if sum(1 for tok in pair.response if _is_url(tok)) > config.max_urls:
            counts["ad_url"] += 1
            continue
        survivors.append(pair)

    # responses attached to too many distinct posts read as spam
    fanout: dict[str, set] = {}
    for pair in survivors:
        fanout.setdefault(" ".join(pair.response), set()).add(" ".join(pair.post))
    kept = []
    for pair in survivors:
        if len(fanout[" ".join(pair.response)]) > config.max_duplicate_fanout:
            counts["ad_fanout"] += 1
        else:
            kept.append(pair)

    per_post: dict[str, int] = {}
    capped = []
    for pair in kept:
        key = " ".join(pair.post)
        seen = per_post.get(key, 0)
        if seen >= config.per_post_cap:
            counts["post_cap"] += 1
            continue
        per_post[key] = seen + 1
        capped.append(pair)

    return capped, counts


def build_vocab(pairs, side: str, cap: int = 40000):
    """Keep the ``cap`` most frequent tokens of one side; ties go to the
    token seen first. Returns (Vocabulary, coverage) where coverage is the
    kept-token share of all token occurrences on that side. The reserved
    spellings, at ids 0-3 already, are never ranked or counted as kept:
    where the text holds one, id_for reads it as UNK_ID.
    """
    if cap < 1:
        raise ValueError(f"vocabulary cap must be >= 1, got {cap}")
    if side not in ("post", "response"):
        raise ValueError(f"side must be 'post' or 'response', got {side!r}")

    freq: dict[str, int] = {}  # in first-seen order, which the stable sort keeps for ties
    total = 0
    for pair in pairs:
        for token in (pair.post if side == "post" else pair.response):
            total += 1
            freq[token] = freq.get(token, 0) + 1
    if total == 0:
        raise CorpusFormatError(f"cannot build a vocabulary from an empty {side} corpus")

    for token in RESERVED_TOKENS:
        freq.pop(token, None)
    ranked = sorted(freq, key=lambda t: -freq[t])
    kept = ranked[:cap]
    coverage = sum(freq[t] for t in kept) / total
    return Vocabulary.from_tokens(side, kept), coverage


def encode(tokens, vocab: Vocabulary, add_bos_eos: bool = False) -> list[int]:
    """Map tokens to ids, UNK for out-of-vocabulary; optionally frame with BOS/EOS."""
    ids = [vocab.id_for(t) for t in tokens]
    if add_bos_eos:
        return [BOS_ID] + ids + [EOS_ID]
    return ids


def make_batches(pairs, vocabs, batch_size: int, rng: Rng,
                 max_response_len: int | None = None) -> list[Batch]:
    """Shuffle pairs with the seeded rng and pack them into padded batches.

    ``vocabs`` is a (post_vocab, response_vocab) tuple. Responses are
    truncated to ``max_response_len`` content tokens before framing.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    post_vocab, resp_vocab = vocabs

    order = list(range(len(pairs)))
    rng.shuffle(order)

    batches = []
    for start in range(0, len(order), batch_size):
        chunk = [pairs[i] for i in order[start:start + batch_size]]
        post_rows = [encode(p.post, post_vocab) for p in chunk]
        resp_content = [p.response[:max_response_len] if max_response_len is not None
                        else p.response for p in chunk]
        resp_rows = [encode(r, resp_vocab, add_bos_eos=True) for r in resp_content]
        batches.append(_pack(post_rows, resp_rows))
    return batches


def _pack(post_rows, resp_rows) -> Batch:
    b = len(post_rows)
    tp = max(len(r) for r in post_rows)
    tr = max(len(r) for r in resp_rows)
    post_ids = np.full((b, tp), PAD_ID, dtype=np.int64)
    post_mask = np.zeros((b, tp), dtype=np.float64)
    resp_ids = np.full((b, tr), PAD_ID, dtype=np.int64)
    resp_mask = np.zeros((b, tr), dtype=np.float64)
    for i, (prow, rrow) in enumerate(zip(post_rows, resp_rows)):
        post_ids[i, :len(prow)] = prow
        post_mask[i, :len(prow)] = 1.0
        resp_ids[i, :len(rrow)] = rrow
        resp_mask[i, :len(rrow)] = 1.0
    return Batch(post_ids, post_mask, resp_ids, resp_mask)
