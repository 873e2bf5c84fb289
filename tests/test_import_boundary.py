"""Importing the package loads nothing numeric, so the command line's
--threads and --deterministic reach BLAS before numpy starts it.

Each case runs in a fresh interpreter with the *_NUM_THREADS variables
cleared, since this test process has long since loaded numpy.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import replygen

SRC = str(Path(replygen.__file__).resolve().parents[1])
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# Records OPENBLAS_NUM_THREADS when numpy is first imported, then runs the CLI.
SPY = """
import os, sys
seen = []

class Spy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Spy)
from replygen.cli import main
code = main(sys.argv[1:])
print("numpy saw OPENBLAS_NUM_THREADS =", *seen)
sys.exit(code)
"""


def python(code, *args, cwd=None):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_importing_the_package_and_cli_loads_no_numpy():
    proc = python("import sys, replygen, replygen.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("flags, expected", [
    (["--deterministic"], "1"),
    (["--threads", "3"], "3"),
    (["--config", "threads.cfg"], "2"),
], ids=["deterministic", "threads", "config"])
def test_thread_pin_is_set_before_numpy_loads(flags, expected, tmp_path):
    (tmp_path / "threads.cfg").write_text("threads = 2\n", encoding="utf-8")
    proc = python(SPY, "grad-check", "--scheme", "glo", "--quiet", *flags, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"numpy saw OPENBLAS_NUM_THREADS = {expected}"


# The public names of the package, by the submodule that defines them.
EXPORTS = {
    "corpus": "Batch CleanConfig PostResponsePair Vocabulary build_vocab clean_corpus "
              "load_pairs make_batches",
    "decoding": "beam_search beam_search_posts exhaustive_oracle greedy_decode multi_response",
    "evalstats": "AnnotationTable chi_square_sf fleiss_kappa friedman_test score_summary",
    "model": "Dims EncodedPost ModelParams decoder_init decoder_step encode encode_post "
             "load_checkpoint save_checkpoint sequence_log_likelihood",
    "numerics": "Rng",
    "training": "TrainConfig backward batch_loss grad_check init_hybrid_from_pretrained "
                "init_params sgd_step train",
}


def test_every_export_is_its_submodules_object():
    proc = python(f"""
import importlib, replygen
exports = {EXPORTS!r}
assert sorted(replygen.__all__) == sorted(" ".join(exports.values()).split())
for module, names in exports.items():
    for name in names.split():
        assert getattr(replygen, name) is getattr(
            importlib.import_module("replygen." + module), name), name
print(len(replygen.__all__))
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "37\n"


def test_the_package_runs_on_numpy_alone():
    """scipy and hypothesis serve the tests only: with both unimportable,
    every submodule imports and the statistics run."""
    proc = python(f"""
import importlib, sys
sys.modules["scipy"] = sys.modules["hypothesis"] = None
for module in {sorted(EXPORTS) + ["cli"]!r}:
    importlib.import_module("replygen." + module)
from replygen.evalstats import AnnotationTable, chi_square_sf, fleiss_kappa, friedman_test
print(chi_square_sf(2.0, 2))
print(friedman_test([[2.0, 1.0], [3.0, 0.5], [5.0, 4.0]])[0])
print(fleiss_kappa(AnnotationTable([[2, 2, 1], [0, 0, 0]])))
""")
    assert proc.returncode == 0, proc.stderr
    p, statistic, kappa = map(float, proc.stdout.split())
    assert (p, statistic) == (math.exp(-1.0), 3.0)
    assert kappa == pytest.approx(5.0 / 11.0, abs=1e-15)
