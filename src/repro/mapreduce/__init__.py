"""Local MapReduce engine and fusion jobs (the scale-out substrate)."""

from repro.mapreduce.engine import (
    EXECUTORS,
    JobStats,
    MapReduceJob,
    RetryPolicy,
    shutdown_pools,
    word_count,
)
from repro.mapreduce.jobs import mr_accu, mr_vote

__all__ = [
    "EXECUTORS",
    "JobStats",
    "MapReduceJob",
    "RetryPolicy",
    "mr_accu",
    "mr_vote",
    "shutdown_pools",
    "word_count",
]
