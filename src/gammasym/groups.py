"""Elementary abelian 2-groups (Z_2)^k used as grading groups.

Elements are bit vectors of fixed rank with componentwise addition mod 2.
For rank 2 (the Klein four-group) the four elements carry the conventional
labels e, a, b, c; higher ranks fall back to plain bit strings.
"""

from __future__ import annotations

from typing import NamedTuple

_KLEIN_LABELS = ("e", "a", "b", "c")


class _GroupElement(NamedTuple):
    rank: int
    bits: int


class GroupElement(_GroupElement):
    """An element of (Z_2)^k: the tuple (rank, bits), ``bits`` an integer bit mask."""

    __slots__ = ()

    def __new__(cls, rank: int, bits: int) -> GroupElement:
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if not 0 <= bits < (1 << rank):
            raise ValueError(f"bits {bits} out of range for rank {rank}")
        return tuple.__new__(cls, (rank, bits))

    @property
    def label(self) -> str:
        """Canonical text label: e/a/b/c at rank 2, else a bit string."""
        if self.rank == 2:
            return _KLEIN_LABELS[self.bits]
        return format(self.bits, f"0{self.rank}b")

    def is_identity(self) -> bool:
        return self.bits == 0

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return product(self, other)

    def __str__(self) -> str:
        return self.label


# the Klein four-group, built once: the block gradings ask for it on every use
_KLEIN = tuple(GroupElement(2, v) for v in range(4))


def identity(rank: int) -> GroupElement:
    """The neutral element of (Z_2)^rank."""
    return _KLEIN[0] if rank == 2 else GroupElement(rank, 0)


def product(x: GroupElement, y: GroupElement) -> GroupElement:
    """Group product; componentwise addition mod 2 is XOR on the masks."""
    if x.rank != y.rank:
        raise ValueError(f"rank mismatch: {x.rank} != {y.rank}")
    return GroupElement(x.rank, x.bits ^ y.bits)


def enumerate_group(rank: int) -> list[GroupElement]:
    """All 2^rank elements in a fixed order (identity first), in a new list."""
    if rank == 2:
        return list(_KLEIN)
    return [GroupElement(rank, v) for v in range(1 << rank)]


def from_label(rank: int, label: str) -> GroupElement:
    """Inverse of ``GroupElement.label``."""
    if rank == 2 and label in _KLEIN_LABELS:
        return GroupElement(2, _KLEIN_LABELS.index(label))
    if len(label) == rank and set(label) <= {"0", "1"}:
        return GroupElement(rank, int(label, 2))
    raise ValueError(f"cannot parse group label {label!r} at rank {rank}")
