"""Deterministic random-number streams.

Every stochastic component of the simulation (workload synthesis, bug
injection) draws from a :class:`DeterministicRng` derived from a single root
seed plus a label, so that a given (seed, benchmark, monitor) triple always
produces bit-identical traces.  This is what makes the blocking-versus-non-
blocking equivalence tests meaningful: both runs see the same event stream.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, TypeVar

T = TypeVar("T")


def derive_seed(root_seed: int, *labels: object) -> int:
    """Derive a child seed from a root seed and a sequence of labels.

    The derivation hashes the labels so that streams for different purposes
    (for example ``("astar", "addresses")`` versus ``("astar", "opcodes")``)
    are statistically independent even when the root seed is small.
    """
    digest = hashlib.sha256()
    digest.update(str(root_seed).encode())
    for label in labels:
        digest.update(b"\x00")
        digest.update(str(label).encode())
    return int.from_bytes(digest.digest()[:8], "little")


class DeterministicRng:
    """A labelled, reproducible random stream.

    Thin wrapper over :class:`random.Random` that adds a few distributions
    the workload generator needs and records the derivation labels for
    debugging.

    The per-draw primitives are plain instance attributes, so a hot caller
    pays one call per draw instead of a wrapper frame plus the stdlib's
    ``randint`` -> ``randrange`` -> ``_randbelow`` chain:

    * ``random()`` — the bound ``random.Random.random``;
    * ``randbelow(n)`` — an integer in ``[0, n)`` for ``n >= 1``, by
      CPython's ``_randbelow_with_getrandbits``: ``k = n.bit_length()``,
      then ``getrandbits(k)`` until the value is below ``n``;
    * ``randint(low, high)`` — ``low + randbelow(high - low + 1)``;
    * ``choice(items)`` — ``items[randbelow(len(items))]``;
    * ``chance(p)`` — ``True`` with probability ``p``; draws nothing when
      ``p <= 0`` or ``p >= 1``.

    ``randbelow`` pins the stdlib's algorithm in-repo, so every stream (and
    every synthesized trace) depends only on ``random()`` and
    ``getrandbits()`` and matches ``random.Random`` draw for draw.
    """

    __slots__ = (
        "labels", "_random", "random", "randbelow", "randint", "choice",
        "chance",
    )

    def __init__(self, root_seed: int, *labels: object) -> None:
        self.labels = tuple(labels)
        self._random = stream = random.Random(derive_seed(root_seed, *labels))
        draw = self.random = stream.random
        getrandbits = stream.getrandbits

        def randbelow(n: int) -> int:
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                if n <= 0:  # Off the fast path: only rejections get here.
                    raise ValueError(f"randbelow bound must be positive: {n}")
                r = getrandbits(k)
            return r

        def randint(low: int, high: int) -> int:
            width = high - low + 1
            if width <= 0:
                raise ValueError(f"empty range for randint({low}, {high})")
            return low + randbelow(width)

        def choice(items: Sequence[T]) -> T:
            if not items:
                raise IndexError("Cannot choose from an empty sequence")
            return items[randbelow(len(items))]

        def chance(probability: float) -> bool:
            return probability > 0.0 and (
                probability >= 1.0 or draw() < probability
            )

        self.randbelow = randbelow
        self.randint = randint
        self.choice = choice
        self.chance = chance

    def child(self, *labels: object) -> "DeterministicRng":
        """Return an independent stream derived from this one."""
        return DeterministicRng(self._random.randrange(2**63), *labels)

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def geometric(self, mean: float) -> int:
        """Sample a geometric-like positive integer with the given mean.

        Used for burst lengths and inter-arrival gaps; the heavy tail matches
        the bursty event production the paper observes in Section 3.2.
        """
        if mean <= 1.0:
            return 1
        probability = 1.0 / mean
        count = 1
        while not self._random.random() < probability:
            count += 1
            if count >= mean * 64:  # Safety bound; tail beyond this is noise.
                break
        return count

    def pareto_int(self, minimum: int, shape: float = 1.5) -> int:
        """Sample a heavy-tailed integer >= minimum (allocation sizes)."""
        return max(minimum, int(minimum * self._random.paretovariate(shape)))

    def shuffle(self, items: list) -> None:
        self._random.shuffle(items)
