"""echonet: retweet-network structure and hashtag-topic analysis pipeline."""

import os

# Parallelism is per process (--threads); the only BLAS calls are T x n
# matrix-vector products in held_out_perplexity, and a BLAS pool in each
# worker would oversubscribe the cores. Set before `graph` imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
