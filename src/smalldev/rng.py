"""Reproducible parallel random streams.

Streams are counter-based (Philox) and keyed by (seed, path), where the
path is a tuple of child indices.  Two streams with different paths are
statistically independent, and a stream's output depends only on its key
and draw index, never on thread scheduling.  A stream is its key:
``child`` makes a new node of the child's key on every call and keeps
none, so a caller that wants successive draws of one substream holds on
to the node it was given.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RngStream"]


class RngStream:
    """One node in a tree of reproducible random streams."""

    __slots__ = ("seed", "path", "_generator")

    def __init__(self, seed: int, path: tuple[int, ...] = ()) -> None:
        self.seed = int(seed)
        self.path = tuple(int(i) for i in path)
        self._generator = None

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy Generator; created lazily, stateful."""
        if self._generator is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
            self._generator = np.random.Generator(np.random.Philox(ss))
        return self._generator

    def child(self, index: int) -> "RngStream":
        """A fresh node keyed (seed, path + (index,)), at its first draw."""
        return RngStream(self.seed, self.path + (index,))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path})"
