"""Predictors: eviction policies for cached connections."""

from .base import NullPredictor, Predictor
from .counter import CounterPredictor
from .markov import MarkovPrefetcher
from .timeout import TimeoutPredictor

__all__ = [
    "NullPredictor",
    "Predictor",
    "CounterPredictor",
    "MarkovPrefetcher",
    "TimeoutPredictor",
]
