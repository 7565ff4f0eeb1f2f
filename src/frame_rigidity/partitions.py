"""Integer partitions, tableaux as canonical set partitions, and refinement.

The combinatorial indexing layer: numeric partitions order the dimension
vectors of frames, tableaux say which frame components get summed together,
and refinement arrows between tableaux are the morphisms along which frames
are coarsened.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import ChainMismatchError, SizeMismatchError


@dataclass(frozen=True, order=True)
class IntPartition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "_hash", hash((parts,)))  # the dataclass hash, once

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def conjugate(self) -> "IntPartition":
        """Transpose of the left-justified diagram: entry i counts parts >= i."""
        if not self.parts:
            return IntPartition(())
        return IntPartition(
            tuple(
                sum(1 for p in self.parts if p >= i)
                for i in range(1, self.parts[0] + 1)
            )
        )

    def jmp_sequence(self) -> tuple[int, ...]:
        """Strictly positive successive differences, zero-padded at the end."""
        padded = self.parts + (0,)
        diffs = tuple(padded[j] - padded[j + 1] for j in range(len(self.parts)))
        return tuple(d for d in diffs if d > 0)

    def symmetry_factors(self) -> tuple[int, ...]:
        """Sizes of the symmetric-group factors permuting equal-length runs.

        Computed as the jump sequence of the conjugate; coincides with the
        multiplicities of the distinct part values.
        """
        return self.conjugate().jmp_sequence()


def dominance_leq(mu: IntPartition, nu: IntPartition) -> bool:
    """Dominance order: every prefix sum of mu at most that of nu."""
    if mu.n != nu.n:
        raise SizeMismatchError(f"partitions of different totals: {mu.n} vs {nu.n}")
    width = max(len(mu), len(nu))
    acc_mu = acc_nu = 0
    for j in range(width):
        acc_mu += mu.parts[j] if j < len(mu) else 0
        acc_nu += nu.parts[j] if j < len(nu) else 0
        if acc_mu > acc_nu:
            return False
    return True


def partitions_of(n: int) -> Iterator[IntPartition]:
    """All numeric partitions of n, largest first part first."""

    def gen(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield IntPartition(prefix)
            return
        for first in range(min(cap, remaining), 0, -1):
            yield from gen(remaining - first, first, prefix + (first,))

    yield from gen(n, n, ())


@dataclass(frozen=True)
class Tableau:
    """A set partition of {1..n} in canonical form.

    Blocks are frozensets ordered by decreasing size, ties broken by the
    smallest element; the numeric shape is the tuple of block sizes.  Two
    tableaux with the same shape but different blocks stay distinct.
    """

    n: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        blocks = tuple(frozenset(int(x) for x in b) for b in self.blocks)
        blocks = tuple(sorted(blocks, key=lambda b: (-len(b), min(b))))
        object.__setattr__(self, "blocks", blocks)
        if any(not b for b in blocks):
            raise ValueError("empty block")
        seen: set[int] = set()
        for b in blocks:
            if seen & b:
                raise ValueError("blocks are not disjoint")
            seen |= b
        if seen != set(range(1, self.n + 1)):
            raise ValueError(f"blocks must partition 1..{self.n}")
        object.__setattr__(self, "_hash", hash((self.n, blocks)))  # the dataclass hash, once

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def shape(self) -> IntPartition:
        """The block sizes, built on first read and kept."""
        return IntPartition(tuple(len(b) for b in self.blocks))

    def block_of(self, symbol: int) -> int:
        """Index (0-based) of the block containing the given symbol."""
        for k, b in enumerate(self.blocks):
            if symbol in b:
                return k
        raise KeyError(symbol)

    @classmethod
    def singletons(cls, n: int) -> "Tableau":
        return cls(n, tuple(frozenset([i]) for i in range(1, n + 1)))

    @classmethod
    def one_block(cls, n: int) -> "Tableau":
        return cls(n, (frozenset(range(1, n + 1)),))

    def to_json(self) -> dict:
        return {"n": self.n, "blocks": [sorted(b) for b in self.blocks]}

    @classmethod
    def from_json(cls, obj: dict) -> "Tableau":
        return cls(int(obj["n"]), tuple(frozenset(b) for b in obj["blocks"]))


def set_partitions(n: int) -> Iterator[Tableau]:
    """All set partitions of {1..n} in canonical tableau form."""

    def gen(symbol: int, blocks: list[list[int]]):
        if symbol > n:
            yield Tableau(n, tuple(frozenset(b) for b in blocks))
            return
        for b in blocks:
            b.append(symbol)
            yield from gen(symbol + 1, blocks)
            b.pop()
        blocks.append([symbol])
        yield from gen(symbol + 1, blocks)
        blocks.pop()

    yield from gen(1, [])


@dataclass(frozen=True)
class RefinementArrow:
    """Witness that ``fine`` refines ``coarse``: fine block j sits inside
    coarse block ``block_map[j]``."""

    fine: Tableau
    coarse: Tableau
    block_map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "block_map", tuple(int(k) for k in self.block_map))
        if len(self.block_map) != len(self.fine.blocks):
            raise ValueError("block_map must assign every fine block")
        if self.fine.n != self.coarse.n:
            raise SizeMismatchError("tableaux over different symbol sets")
        covered: list[set[int]] = [set() for _ in self.coarse.blocks]
        for j, k in enumerate(self.block_map):
            if not self.fine.blocks[j] <= self.coarse.blocks[k]:
                raise ValueError(f"fine block {j} escapes coarse block {k}")
            covered[k] |= self.fine.blocks[j]
        for k, c in enumerate(covered):
            if c != set(self.coarse.blocks[k]):
                raise ValueError(f"coarse block {k} not covered")


def identity_refinement(t: Tableau) -> RefinementArrow:
    return RefinementArrow(t, t, tuple(range(len(t.blocks))))


def reverse_refines(fine: Tableau, coarse: Tableau) -> Optional[RefinementArrow]:
    """The unique arrow fine -> coarse, or None when a fine block splits."""
    if fine.n != coarse.n:
        raise SizeMismatchError("tableaux over different symbol sets")
    block_map = []
    for b in fine.blocks:
        k = coarse.block_of(min(b))
        if not b <= coarse.blocks[k]:
            return None
        block_map.append(k)
    return RefinementArrow(fine, coarse, tuple(block_map))


def compose_refinements(f: RefinementArrow, g: RefinementArrow) -> RefinementArrow:
    """Arrow composition; the middle tableaux must coincide."""
    if f.coarse != g.fine:
        raise ChainMismatchError("middle tableaux differ")
    return RefinementArrow(
        f.fine, g.coarse, tuple(g.block_map[k] for k in f.block_map)
    )


# -- the symmetric-group action and its embedding along a refinement ------------


@functools.lru_cache(maxsize=256)
def equal_part_runs(shape: IntPartition) -> tuple[range, ...]:
    """The index runs of equal parts, in order: ``(2, 1, 1)`` has the runs
    ``range(0, 1)`` and ``range(1, 3)``."""
    runs, start = [], 0
    for _, run in itertools.groupby(shape.parts):
        stop = start + len(list(run))
        runs.append(range(start, stop))
        start = stop
    return tuple(runs)


def legal_permutations(shape: IntPartition) -> Iterator[tuple[int, ...]]:
    """All permutations of component indices moving equal parts only.

    Yields maps sigma with new_index -> old_index semantics; the group is the
    product of full symmetric groups on the runs of equal part values.
    """
    runs = equal_part_runs(shape)
    for pieces in itertools.product(*(itertools.permutations(r) for r in runs)):
        sigma = list(range(len(shape.parts)))
        for run, perm in zip(runs, pieces):
            for pos, old in zip(run, perm):
                sigma[pos] = old
        yield tuple(sigma)


def is_legal_permutation(shape: IntPartition, sigma: tuple[int, ...]) -> bool:
    parts = shape.parts
    if sorted(sigma) != list(range(len(parts))):
        return False
    return all(parts[i] == parts[sigma[i]] for i in range(len(parts)))


def lift_coarse_permutation(
    arrow: RefinementArrow, sigma_coarse: tuple[int, ...]
) -> Optional[tuple[int, ...]]:
    """Embed a coarse-side permutation as a fine-side one along the arrow.

    Matches the fibers over coarse block k and coarse block sigma_coarse[k]
    in canonical order; returns None when the fiber size profiles differ
    (the permutation then has no lift).
    """
    if not is_legal_permutation(arrow.coarse.shape, sigma_coarse):
        return None
    fibers: list[list[int]] = [[] for _ in arrow.coarse.blocks]
    for j, k in enumerate(arrow.block_map):
        fibers[k].append(j)
    sigma_fine = [-1] * len(arrow.fine.blocks)
    for k, target in enumerate(sigma_coarse):
        src, dst = fibers[k], fibers[target]
        if len(src) != len(dst):
            return None
        for a, b in zip(src, dst):
            if len(arrow.fine.blocks[a]) != len(arrow.fine.blocks[b]):
                return None
            sigma_fine[a] = b
    return tuple(sigma_fine)
