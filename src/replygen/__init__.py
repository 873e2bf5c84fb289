"""Response generation for short-text conversation.

A GRU encoder-decoder that scores and generates replies to short posts,
with three context-generation schemes (final-state summary, additive
attention, and their concatenated hybrid), hand-derived gradient training,
beam-search decoding, and rater-agreement statistics for evaluating model
output.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it exports. Importing the package
# loads none of them, and so no numpy: a name's submodule is imported the
# first time the name is used (``__getattr__``), which lets the command line
# pin the numeric libraries' thread counts before they start.
_EXPORTS = {
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
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value
