"""Response generation for short-text conversation.

A GRU encoder-decoder that scores and generates replies to short posts,
with three context-generation schemes (final-state summary, additive
attention, and their concatenated hybrid), hand-derived gradient training,
beam-search decoding, and rater-agreement statistics for evaluating model
output.
"""

__version__ = "0.1.0"

from .corpus import (
    Batch,
    CleanConfig,
    PostResponsePair,
    Vocabulary,
    build_vocab,
    clean_corpus,
    load_pairs,
    make_batches,
)
from .decoding import (
    beam_search,
    beam_search_posts,
    exhaustive_oracle,
    greedy_decode,
    multi_response,
)
from .evalstats import (
    AnnotationTable,
    chi_square_sf,
    fleiss_kappa,
    friedman_test,
    score_summary,
)
from .model import (
    Dims,
    EncodedPost,
    ModelParams,
    decoder_init,
    decoder_step,
    encode,
    encode_post,
    load_checkpoint,
    save_checkpoint,
    sequence_log_likelihood,
)
from .numerics import Rng
from .training import (
    TrainConfig,
    backward,
    batch_loss,
    grad_check,
    init_hybrid_from_pretrained,
    init_params,
    sgd_step,
    train,
)
