import re

import numpy as np
import pytest

from replygen.corpus import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    UNK_ID,
    CleanConfig,
    CorpusFormatError,
    PostResponsePair,
    Vocabulary,
    build_vocab,
    clean_corpus,
    encode,
    load_pairs,
    make_batches,
)
from replygen.numerics import Rng


def pair(post, resp):
    return PostResponsePair(post.split(), resp.split())


# --- load_pairs ----------------------------------------------------------


def test_load_pairs_roundtrip(tmp_path):
    p = tmp_path / "pairs.tsv"
    p.write_text("how are you\tfine thanks\nnice weather\tsure is\n",
                 encoding="utf-8")
    pairs = load_pairs(p)
    assert len(pairs) == 2
    assert pairs[0].post == ["how", "are", "you"]
    assert pairs[0].response == ["fine", "thanks"]
    assert pairs[1].response == ["sure", "is"]


def test_load_pairs_missing_tab_names_line(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("a\tb\nno separator here\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=r":2:"):
        load_pairs(p)


def test_load_pairs_skips_blank_lines(tmp_path):
    p = tmp_path / "pairs.tsv"
    p.write_text("a b\tc d\n\n   \ne f\tg h\n", encoding="utf-8")
    assert len(load_pairs(p)) == 2


def test_load_pairs_rejects_non_utf8(tmp_path):
    p = tmp_path / "latin.tsv"
    p.write_bytes(b"caf\xe9\tr\xe9ponse\n")
    with pytest.raises(CorpusFormatError, match="UTF-8"):
        load_pairs(p)


def test_load_pairs_extra_tab_goes_to_response(tmp_path):
    p = tmp_path / "pairs.tsv"
    p.write_text("a\tb\tc\n", encoding="utf-8")
    pairs = load_pairs(p)
    assert pairs[0].post == ["a"]
    assert pairs[0].response == ["b", "c"]


# --- clean_corpus --------------------------------------------------------


def test_clean_removes_short_and_stoplisted():
    pairs = [
        pair("any post", "a fine answer"),
        pair("any post", "lol"),        # stoplist
        pair("any post", "single"),     # below min tokens
        pair("other", "me too ok"),     # long enough, not stoplisted
    ]
    kept, counts = clean_corpus(pairs, CleanConfig())
    assert [p.response for p in kept] == [["a", "fine", "answer"], ["me", "too", "ok"]]
    assert counts["trivial"] == 2


def test_clean_stoplist_matches_full_text_only():
    cfg = CleanConfig(trivial_stoplist=frozenset({"me too"}), min_response_tokens=1)
    pairs = [pair("p", "me too"), pair("p", "me too thanks")]
    kept, counts = clean_corpus(pairs, cfg)
    assert counts["trivial"] == 1
    assert kept[0].response == ["me", "too", "thanks"]


def test_clean_removes_url_ads():
    pairs = [
        pair("p", "check out https://spam.example now"),
        pair("p", "see www.spam.example for more"),
        pair("p", "the word wwwideas is innocent here"),
    ]
    kept, counts = clean_corpus(pairs, CleanConfig())
    assert counts["ad_url"] == 2
    assert len(kept) == 1


def test_clean_url_allowance_is_configurable():
    pairs = [pair("p", "one link https://a.example is fine")]
    kept, counts = clean_corpus(pairs, CleanConfig(max_urls=1))
    assert counts["ad_url"] == 0 and len(kept) == 1


def test_clean_removes_mass_duplicated_responses():
    cfg = CleanConfig(max_duplicate_fanout=2)
    pairs = [pair(f"post number {i}", "buy my product") for i in range(3)]
    pairs.append(pair("post number 0", "buy my product"))  # same post, not new fanout
    pairs.append(pair("q", "an ordinary reply"))
    kept, counts = clean_corpus(pairs, cfg)
    assert counts["ad_fanout"] == 4
    assert [p.response for p in kept] == [["an", "ordinary", "reply"]]


def test_clean_fanout_at_limit_survives():
    cfg = CleanConfig(max_duplicate_fanout=2)
    pairs = [pair(f"post {i}", "thanks a lot") for i in range(2)]
    kept, counts = clean_corpus(pairs, cfg)
    assert counts["ad_fanout"] == 0 and len(kept) == 2


def test_clean_caps_responses_per_post():
    cfg = CleanConfig(per_post_cap=2)
    pairs = [pair("the post", f"reply number {i}") for i in range(5)]
    kept, counts = clean_corpus(pairs, cfg)
    assert counts["post_cap"] == 3
    assert [p.response for p in kept] == [["reply", "number", "0"], ["reply", "number", "1"]]


def test_clean_drops_empty_posts():
    pairs = [PostResponsePair([], ["some", "reply"]), pair("p", "good reply here")]
    kept, counts = clean_corpus(pairs)
    assert counts["empty_post"] == 1 and len(kept) == 1


def test_clean_is_idempotent():
    pairs = [
        pair("p1", "lol"),
        pair("p2", "an answer of substance"),
        pair("p3", "visit www.ads.example today"),
    ] + [pair(f"q{i}", "identical spam text") for i in range(12)]
    once, _ = clean_corpus(pairs)
    twice, counts = clean_corpus(once)
    assert [(" ".join(p.post), " ".join(p.response)) for p in once] == \
           [(" ".join(p.post), " ".join(p.response)) for p in twice]
    assert all(v == 0 for v in counts.values())


# --- vocabularies --------------------------------------------------------


def test_build_vocab_frequency_order_with_first_seen_ties():
    pairs = [pair("b b a a c", "x"), pair("a b", "y")]
    vocab, coverage = build_vocab(pairs, "post")
    # a and b both occur 3 times; b was seen first
    assert vocab.tokens[:4] == list(RESERVED_TOKENS)
    assert vocab.tokens[4:] == ["b", "a", "c"]
    assert coverage == 1.0


def test_build_vocab_cap_and_coverage():
    pairs = [pair("a a a b b c", "ignored")]
    vocab, coverage = build_vocab(pairs, "post", cap=2)
    assert vocab.tokens[4:] == ["a", "b"]
    assert coverage == pytest.approx(5.0 / 6.0)


def test_build_vocab_response_side():
    pairs = [pair("z", "yes no yes")]
    vocab, _ = build_vocab(pairs, "response")
    assert vocab.side == "response"
    assert vocab.tokens[4:] == ["yes", "no"]


def test_build_vocab_rejects_empty_and_bad_side():
    with pytest.raises(CorpusFormatError):
        build_vocab([], "post")
    with pytest.raises(ValueError):
        build_vocab([pair("a", "b")], "both")
    with pytest.raises(ValueError):
        build_vocab([pair("a", "b")], "post", cap=0)


def test_vocabulary_lookup_and_unk():
    vocab = Vocabulary.from_tokens("post", ["hello", "world"])
    assert vocab.id_for("hello") == 4
    assert vocab.id_for("unseen") == UNK_ID
    assert vocab.decode([4, 5]) == ["hello", "world"]
    assert len(vocab) == 6


def test_vocabulary_rejects_duplicates():
    with pytest.raises(CorpusFormatError, match="duplicate token 'dup'"):
        Vocabulary.from_tokens("post", ["dup", "dup"])
    with pytest.raises(CorpusFormatError, match="duplicate token '<unk>'"):
        Vocabulary.from_tokens("post", ["<unk>"])  # collides with a reserved token


def test_build_vocab_never_ranks_reserved_spellings():
    """Reserved spellings in the text are not ranked, their occurrences count
    toward coverage's total but not as kept, and each reads as UNK_ID."""
    pairs = [pair("hi <unk> there", "fine </s>"), pair("<s> hi <pad>", "ok")]
    vocab, coverage = build_vocab(pairs, "post")
    assert vocab.tokens == list(RESERVED_TOKENS) + ["hi", "there"]
    assert coverage == 3 / 6
    assert encode(["hi", "<unk>", "<s>", "<pad>"], vocab) == [4, UNK_ID, UNK_ID, UNK_ID]
    vocab, coverage = build_vocab(pairs, "response")
    assert vocab.tokens[4:] == ["fine", "ok"] and coverage == 2 / 3


def test_vocabulary_save_load_roundtrip(tmp_path):
    vocab = Vocabulary.from_tokens("response", ["alpha", "beta"])
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path, side="response")
    assert loaded.tokens == vocab.tokens
    assert loaded.index == vocab.index


def test_vocabulary_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("<pad>\n<s>\nwrong\n<unk>\nword\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        Vocabulary.load(path)


@pytest.mark.parametrize("line", ["", "a b", " a", "a\tb", "a\u2028b"],
                         ids=["blank", "space", "leading-space", "tab", "u2028"])
def test_vocabulary_load_refuses_a_line_that_is_not_one_token(line, tmp_path):
    """A decoded word is printed inside tab-separated lines, so each
    vocabulary line must be exactly one str.split() token."""
    path = tmp_path / "vocab.txt"
    path.write_text("\n".join(RESERVED_TOKENS + ("ok", line, "end")) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}:6: "):
        Vocabulary.load(path)


def test_vocabulary_load_names_the_duplicate_line(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("\n".join(RESERVED_TOKENS + ("dup", "x", "dup")) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError,
                       match=f"^{re.escape(str(path))}:7: duplicate token 'dup'$"):
        Vocabulary.load(path)


# --- encoding and batching -----------------------------------------------


def test_encode_with_and_without_frame():
    vocab = Vocabulary.from_tokens("response", ["hi", "there"])
    assert encode(["hi", "nope"], vocab) == [4, UNK_ID]
    assert encode(["there"], vocab, add_bos_eos=True) == [BOS_ID, 5, EOS_ID]


def _two_vocabs(pairs):
    return build_vocab(pairs, "post")[0], build_vocab(pairs, "response")[0]


def test_make_batches_covers_every_pair_once():
    pairs = [pair(f"post {i}", f"reply {i} x") for i in range(10)]
    vocabs = _two_vocabs(pairs)
    batches = make_batches(pairs, vocabs, batch_size=3, rng=Rng(0))
    assert [len(b) for b in batches] == [3, 3, 3, 1]
    seen = []
    for b in batches:
        for row, mask in zip(b.resp_ids, b.resp_mask):
            seen.append(tuple(row[mask == 1.0]))
    assert len(set(seen)) == 10


def test_make_batches_masks_and_padding():
    pairs = [pair("a b c", "x y"), pair("d", "z")]
    vocabs = _two_vocabs(pairs)
    (batch,) = make_batches(pairs, vocabs, batch_size=2, rng=Rng(1))
    assert batch.post_ids.shape == batch.post_mask.shape
    # mask rows are 1 on the row's tokens, then 0; PAD appears exactly where
    # the mask is 0
    for ids, mask, lengths in ((batch.post_ids, batch.post_mask, {3, 1}),
                               (batch.resp_ids, batch.resp_mask, {4, 3})):
        n = mask.sum(axis=1).astype(int)
        assert set(n) == lengths
        np.testing.assert_array_equal(mask, np.arange(mask.shape[1]) < n[:, None])
        assert ((ids == PAD_ID) == (mask == 0.0)).all()
    # responses are framed
    for row, n in zip(batch.resp_ids, batch.resp_mask.sum(axis=1).astype(int)):
        assert row[0] == BOS_ID and row[n - 1] == EOS_ID


def test_make_batches_frames_only_at_the_ends_whatever_the_text():
    """Reserved spellings in pair text read as UNK: EOS_ID sits only at each
    response's last real position, BOS_ID only at its first, and posts hold
    no frame or padding id."""
    pairs = [pair("hi </s> <s>", "ok </s> then <s>"), pair("<pad>", "<pad> fine"),
             pair("hi", "</s> ok")]
    vocabs = _two_vocabs(pairs)
    (batch,) = make_batches(pairs, vocabs, batch_size=3, rng=Rng(2))
    n = batch.resp_mask.sum(axis=1).astype(int)
    cols = np.arange(batch.resp_ids.shape[1])
    assert ((batch.resp_ids == EOS_ID) == (cols == n[:, None] - 1)).all()
    assert ((batch.resp_ids == BOS_ID) == (cols == 0)).all()
    assert (batch.post_ids[batch.post_mask == 1.0] >= UNK_ID).all()


def test_make_batches_shuffle_is_seeded():
    pairs = [pair(f"p {i}", f"r {i} q") for i in range(8)]
    vocabs = _two_vocabs(pairs)
    a = make_batches(pairs, vocabs, 4, Rng(5))
    b = make_batches(pairs, vocabs, 4, Rng(5))
    c = make_batches(pairs, vocabs, 4, Rng(6))
    np.testing.assert_array_equal(a[0].post_ids, b[0].post_ids)
    assert any(not np.array_equal(x.post_ids, y.post_ids) for x, y in zip(a, c))


def test_make_batches_truncates_responses():
    pairs = [pair("p", "one two three four five")]
    vocabs = _two_vocabs(pairs)
    (batch,) = make_batches(pairs, vocabs, 1, Rng(0), max_response_len=2)
    # BOS + 2 content + EOS
    assert batch.resp_mask[0].sum() == 4
    assert batch.resp_ids[0, -1] == EOS_ID


def test_make_batches_rejects_bad_batch_size():
    pairs = [pair("a", "b c")]
    with pytest.raises(ValueError):
        make_batches(pairs, _two_vocabs(pairs), 0, Rng(0))
