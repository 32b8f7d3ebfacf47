"""Local MapReduce engine: the substrate every fuse runs on."""

from repro.mapreduce.engine import JobStats, MapReduceJob

__all__ = [
    "JobStats",
    "MapReduceJob",
]
