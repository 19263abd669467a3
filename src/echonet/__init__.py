"""echonet: retweet-network structure and hashtag-topic analysis pipeline."""

__version__ = "0.1.0"

from .records import (  # noqa: F401
    CorpusStats,
    TweetRecord,
    corpus_summary,
    keyword_filter,
    parse_tweet_stream,
)
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
