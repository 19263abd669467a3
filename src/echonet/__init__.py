"""echonet: retweet-network structure and hashtag-topic analysis pipeline."""

import os

# Parallelism is per process (--threads), and a BLAS pool in each worker would
# oversubscribe the cores. OpenBLAS starts its pool when numpy loads it, which
# doubles the import's time on 2 cores. Set before `graph` imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
