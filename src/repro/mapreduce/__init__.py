"""Local MapReduce engine and fusion jobs (the scale-out substrate)."""

from repro.mapreduce.engine import JobStats, MapReduceJob, word_count
from repro.mapreduce.jobs import mr_accu, mr_vote

__all__ = [
    "JobStats",
    "MapReduceJob",
    "mr_accu",
    "mr_vote",
    "word_count",
]
