"""Seeded random streams.

Every source of randomness in an experiment derives from one root seed, so
a run is reproducible from a single integer.  Substreams are derived by
hashing ``(root_seed, name)``, which makes them independent of the order in
which components are constructed -- adding a new random component does not
perturb the draws seen by existing ones.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Sequence


class SeededRng:
    """A named random stream with convenience distributions."""

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        self._random = random.Random(_derive_seed(seed, name))
        #: One uniform draw from ``[0, 1)``: the generator's own bound
        #: method, so a per-message caller pays no python frame for it.
        self.random = self._random.random

    def substream(self, name: str) -> "SeededRng":
        """Derive an independent stream identified by ``name``.

        Substream derivation is stable: the same ``(seed, path)`` always
        yields the same stream regardless of creation order.
        """
        return SeededRng(self.seed, f"{self.name}/{name}")

    # -- distributions ---------------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def exponential(self, mean: float) -> float:
        """Exponentially-distributed value with the given mean."""
        if mean <= 0:
            raise ValueError(f"mean must be positive: {mean}")
        return self._random.expovariate(1.0 / mean)

    def chance(self, probability: float) -> bool:
        """Bernoulli draw: ``True`` with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of range: {probability}")
        return self._random.random() < probability

    def choice(self, seq: Sequence[Any]) -> Any:
        return self._random.choice(seq)

    def shuffled(self, seq: Sequence[Any]) -> list[Any]:
        """Return a shuffled copy, leaving the input untouched."""
        items = list(seq)
        self._random.shuffle(items)
        return items

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SeededRng seed={self.seed} name={self.name!r}>"


def _derive_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
