"""Output checks of the benchmark. Each returns whether one operation's output
is correct; bench.py counts the operations that fail."""

from __future__ import annotations

import math

# Tolerance of the acceptance tests' own re-scoring criterion.
RESCORE_TOL = 1e-9


def rescore_errors(scorer, post_ids, hyps, sample) -> list[float]:
    """|returned score - scorer(post, tokens)| for the hypotheses at the
    (possibly negative) indices in `sample`."""
    picked = sorted({i % len(hyps) for i in sample}) if hyps else []
    return [abs(hyps[i][1] - scorer(post_ids, hyps[i][0])) for i in picked]


def rescores(errors) -> bool:
    """Every re-scored hypothesis agrees with its returned score."""
    return all(math.isfinite(e) and e <= RESCORE_TOL for e in errors)


def first_tokens_distinct(hyps) -> bool:
    """multi_response returns at most one hypothesis per first token."""
    firsts = [tokens[0] for tokens, _ in hyps]
    return len(firsts) == len(set(firsts))


def full_length(hyps, length: int) -> bool:
    """Every hypothesis has `length` tokens. Under the benchmark's EOS
    offset no search may close early; a shorter hypothesis means less
    decode work than the timings assume."""
    return all(len(tokens) == length for tokens, _ in hyps)


def finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def expected_generate_lines(post_tokens, hyps, resp_vocab) -> list[str]:
    """The lines `replygen generate --posts-file` prints for one post."""
    lines = ["post\t" + " ".join(post_tokens)]
    for rank, (ids, log_prob) in enumerate(hyps, start=1):
        lines.append(f"{rank}\t{log_prob:.10f}\t{' '.join(resp_vocab.decode(ids))}")
    return lines


def generate_output_matches(text, posts, expected_hyps, resp_vocab) -> list[bool]:
    """Per post: does the command output equal the library hypotheses, rank
    by rank? Extra or missing lines fail the posts they fall in."""
    groups: list[list[str]] = []
    for line in text.splitlines():
        if line.startswith("post\t") or not groups:
            groups.append([])
        groups[-1].append(line)
    oks = []
    for i, (tokens, hyps) in enumerate(zip(posts, expected_hyps)):
        got = groups[i] if i < len(groups) else []
        oks.append(got == expected_generate_lines(tokens, hyps, resp_vocab))
    if len(groups) > len(posts) and oks:
        oks[-1] = False
    return oks
