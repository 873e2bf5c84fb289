"""The benchmark's output checks count bad output as failed operations.

Run from the repository root: python3 -m pytest perfbench/test_checks.py
"""

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import bench  # noqa: E402
import checks  # noqa: E402
from replygen import decoding, model  # noqa: E402

TINY = bench.Workload("loc", model.Dims(d_h=6, d_emb=4, d_a=5, d_L=3, d_r=5,
                                       v_post=40, v_resp=30))


@pytest.fixture
def phases(tmp_path):
    ph = bench.Phases(TINY, 3, tmp_path, bench.Tracer(False), bench.Tally())
    ph.tally = bench.Tally()  # count only what each test does
    return ph


def test_clean_outputs_pass(phases):
    for i in range(bench.CLI_POSTS):
        phases.generate_one(i)
    phases.generate_file(0)
    phases.multi(0)
    phases.train(0)
    phases.score(0)
    assert phases.tally.failed == 0
    assert phases.tally.attempted == 2 * bench.CLI_POSTS + 3
    assert max(phases.errors) <= checks.RESCORE_TOL


def test_corrupted_score_counts_as_failure(phases, monkeypatch):
    real = decoding.beam_search

    def corrupted(*args, **kwargs):
        hyps = real(*args, **kwargs)
        tokens, score = hyps[0]
        return [(tokens, score + 1e-6)] + hyps[1:]

    monkeypatch.setattr(decoding, "beam_search", corrupted)
    phases.generate_one(0)
    assert (phases.tally.attempted, phases.tally.failed) == (1, 1)


def test_duplicated_first_token_counts_as_failure(phases, monkeypatch):
    real = decoding.multi_response

    def duplicated(*args, **kwargs):
        hyps = real(*args, **kwargs)
        return hyps + [hyps[0]]

    monkeypatch.setattr(decoding, "multi_response", duplicated)
    phases.multi(0)
    assert (phases.tally.attempted, phases.tally.failed) == (1, 1)


@pytest.mark.parametrize("search, phase", [("beam_search", "generate_one"),
                                           ("multi_response", "multi")])
def test_short_hypothesis_counts_as_failure(phases, monkeypatch, search, phase):
    real = getattr(decoding, search)

    def ends_early(*args, **kwargs):
        hyps = real(*args, **kwargs)
        tokens, score = hyps[-1]
        return hyps[:-1] + [(tokens[:-1], score)]

    monkeypatch.setattr(decoding, search, ends_early)
    monkeypatch.setattr(bench, "RESCORE_POSTS", 0)  # only the length check can fail
    getattr(phases, phase)(0)
    assert (phases.tally.attempted, phases.tally.failed) == (1, 1)


def test_generate_output_must_match_library(phases):
    for i in range(bench.CLI_POSTS):
        phases.generate_one(i)
    tokens, score = phases.outputs[4][0]
    phases.outputs[4][0] = (tokens, score - 0.5)
    phases.generate_file(0)
    assert phases.tally.failed == 1


def test_non_finite_loss_counts_as_failure(phases):
    phases.trained = replace(phases.trained, b_o=phases.trained.b_o * float("nan"))
    phases.score(0)
    assert (phases.tally.attempted, phases.tally.failed) == (1, 1)
