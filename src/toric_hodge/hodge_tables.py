"""Square integer tables indexed by (p, q).

One table type serves three roles, distinguished by a tag: Hodge-Deligne
Euler tables e^{pq} ("ordinary"), their compactly supported variants
("compact"), and honest Hodge diamonds h^{pq} ("hodge").
"""

from __future__ import annotations

from collections import namedtuple

VALID_KINDS = ("ordinary", "compact", "hodge")


class EPQTable(namedtuple("EPQTable", "entries kind")):
    """`entries`: a square tuple of int tuples, possibly empty."""

    __slots__ = ()

    def __new__(cls, entries, kind):
        if kind not in VALID_KINDS:
            raise ValueError(f"unknown table kind {kind!r}")
        rows = tuple(map(tuple, entries))
        for row in rows:
            if len(row) != len(rows):
                raise ValueError("table must be square")
            if not all(type(x) is int for x in row):  # type, not isinstance, to refuse bool
                raise ValueError("table entries must be integers")
        return super().__new__(cls, rows, kind)

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def bound(self) -> int:
        """Largest index, or -1 for the empty table."""
        return self.size - 1

    def get(self, p: int, q: int) -> int:
        if 0 <= p < self.size and 0 <= q < self.size:
            return self.entries[p][q]
        return 0

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def total(self) -> int:
        return sum(x for row in self.entries for x in row)

    def convolve(self, other: "EPQTable") -> "EPQTable":
        """Kuenneth product: out[p][q] = sum over splits of products."""
        if self.size == 0 or other.size == 0:
            return EPQTable((), self.kind)
        n = self.size + other.size - 1
        ent = [[0] * n for _ in range(n)]
        for p1 in range(self.size):
            for q1 in range(self.size):
                v = self.entries[p1][q1]
                if v == 0:
                    continue
                for p2 in range(other.size):
                    for q2 in range(other.size):
                        w = other.entries[p2][q2]
                        if w:
                            ent[p1 + p2][q1 + q2] += v * w
        return EPQTable(tuple(tuple(r) for r in ent), self.kind)

    def is_symmetric(self) -> bool:
        return all(
            self.entries[p][q] == self.entries[q][p]
            for p in range(self.size)
            for q in range(self.size)
        )


def zero_table(bound: int, kind: str) -> EPQTable:
    if bound < 0:
        return EPQTable((), kind)
    n = bound + 1
    return EPQTable(tuple(tuple([0] * n) for _ in range(n)), kind)
