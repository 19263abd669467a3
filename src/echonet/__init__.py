"""echonet: retweet-network structure and hashtag-topic analysis pipeline."""

import os

# Parallelism is per process (--threads); the only BLAS calls are T x n
# matrix-vector products in held_out_perplexity, and a BLAS pool in each
# worker would oversubscribe the cores. Set before `graph` imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .records import corpus_summary, keyword_filter  # noqa: F401
from .graph import (  # noqa: F401
    RetweetGraph,
    UndirectedGraph,
    build_retweet_graph,
    classify_roles,
    degree_summary,
    symmetrize,
)
from .communities import (  # noqa: F401
    CommunityCover,
    community_count_sweep,
    detect_communities,
    enumerate_k_cliques,
    maximal_clique_list,
    percolate,
)
from .topics import (  # noqa: F401
    TopicModel,
    build_community_corpus,
    doc_topic_distribution,
    fit_lda,
    held_out_perplexity,
    topic_keywords,
)
from .profiles import description_term_proportions  # noqa: F401
from .config import PipelineConfig, validate_config  # noqa: F401
from .pipeline import run_pipeline  # noqa: F401
