"""Simulated HDFS 2.7: the block size and the replicated write pipeline
the engines use (see :mod:`repro.hdfs.filesystem`)."""

from .filesystem import HDFS

__all__ = ["HDFS"]
