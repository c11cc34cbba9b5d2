"""Root systems of the simple complex Lie algebras A-D, E6, E7.

Roots are stored as integer coefficient vectors in the simple-root basis.
Pairings are integer tables built once per root system: the symmetrized
Cartan matrix 2 (alpha_i|alpha_j), normalized so that long roots have
squared length 2, and each root's coroot in simple-coroot coordinates.  A
weight given by its values on the simple coroots pairs with a coroot by an
integer dot product, and a squared length is the integer 2 (alpha|alpha).
`Fraction` appears only in the fundamental weights, whose simple-root
coordinates are rational.  No irrational Euclidean embedding ever appears,
so all structure constants here are exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple, Sequence

from .exact import solve_linear

FAMILIES = ("A", "B", "C", "D", "E6", "E7")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E6": 6, "E7": 7}
_MAX_RANK = {"E6": 6, "E7": 7}

Root = tuple[int, ...]


class StructuralError(AssertionError):
    """An identity that is a theorem failed; indicates an implementation bug."""


class _CartanType(NamedTuple):
    family: str
    rank: int


class CartanType(_CartanType):
    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if rank < _MIN_RANK[family]:
            raise ValueError(f"family {family} needs rank >= {_MIN_RANK[family]}")
        if family in _MAX_RANK and rank != _MAX_RANK[family]:
            raise ValueError(f"family {family} has fixed rank {_MAX_RANK[family]}")
        return super().__new__(cls, family, rank)

    def __str__(self) -> str:
        return self.family if self.family.startswith("E") else f"{self.family}{self.rank}"


def _symmetrized_cartan(t: CartanType) -> tuple[tuple[int, ...], ...]:
    """2 (alpha_i | alpha_j) for the simple roots, long roots normalized to 2.

    Long simple roots have 4 on the diagonal, short ones 2.  Joined nodes
    carry -1 when both are short and -2 otherwise, which reproduces the
    Cartan integers -1 and -2 of every Dynkin edge.
    """
    n = t.rank
    if t.family == "B":
        diag = [4] * (n - 1) + [2]  # last node short
    elif t.family == "C":
        diag = [2] * (n - 1) + [4]  # last node long, the others short
    else:
        diag = [4] * n
    if t.family == "D":
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    elif t.family.startswith("E"):
        # Bourbaki numbering: chain 1-3-4-5-6(-7), node 2 hangs off node 4
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)] + ([(5, 6)] if t.family == "E7" else [])
    else:
        edges = [(i, i + 1) for i in range(n - 1)]
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        s[i][i] = diag[i]
    for i, j in edges:
        s[i][j] = s[j][i] = -max(diag[i], diag[j]) // 2
    return tuple(tuple(row) for row in s)


def _root_count(t: CartanType) -> int:
    n = t.rank
    return {
        "A": n * (n + 1),
        "B": 2 * n * n,
        "C": 2 * n * n,
        "D": 2 * n * (n - 1),
        "E6": 72,
        "E7": 126,
    }[t.family]


class RootSystem:
    """The full root system of one Cartan type, immutable after build."""

    def __init__(self, cartan_type: CartanType):
        self.cartan_type = cartan_type
        self.rank = cartan_type.rank
        self.sym = _symmetrized_cartan(cartan_type)
        # cartan[i][j] = alpha_i evaluated on the coroot of alpha_j
        self.cartan = tuple(
            tuple(2 * self.sym[i][j] // self.sym[j][j] for j in range(self.rank))
            for i in range(self.rank)
        )
        self.simple_roots: tuple[Root, ...] = tuple(
            tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)
        )
        self.all_roots = self._generate()
        # root -> its coroot in simple-coroot coordinates
        self._coroots = {r: self._coroot_of(r) for r in self.all_roots}
        self.positive_roots: tuple[Root, ...] = tuple(
            sorted((r for r in self.all_roots if all(c >= 0 for c in r)), key=lambda r: (sum(r), r))
        )
        self.highest_root = self._find_highest()
        self._validate()

    # -- construction ------------------------------------------------------

    def _generate(self) -> tuple[Root, ...]:
        # breadth-first closure of the simple roots under simple reflections;
        # terminates because the system is finite
        seen: set[Root] = set(self.simple_roots)
        frontier = list(self.simple_roots)
        while frontier:
            nxt = []
            for beta in frontier:
                for i in range(self.rank):
                    pairing = sum(c * self.cartan[k][i] for k, c in enumerate(beta))
                    img = list(beta)
                    img[i] -= pairing
                    timg = tuple(img)
                    if timg not in seen:
                        seen.add(timg)
                        nxt.append(timg)
            frontier = nxt
        return tuple(sorted(seen))

    def _coroot_of(self, alpha: Root) -> Root:
        # alpha^vee = sum_i alpha_i (alpha_i|alpha_i)/(alpha|alpha) alpha_i^vee
        nsq2 = self.inner2(alpha, alpha)
        scaled = [c * self.sym[i][i] for i, c in enumerate(alpha)]
        if any(x % nsq2 for x in scaled):
            raise StructuralError(f"{self.cartan_type}: coroot of {alpha} is not integral")
        return tuple(x // nsq2 for x in scaled)

    def _find_highest(self) -> Root:
        top_height = max(sum(r) for r in self.positive_roots)
        top = [r for r in self.positive_roots if sum(r) == top_height]
        if len(top) != 1:
            raise StructuralError("highest root is not unique")
        return top[0]

    def _validate(self):
        if len(self.all_roots) != _root_count(self.cartan_type):
            raise StructuralError(
                f"{self.cartan_type}: generated {len(self.all_roots)} roots, "
                f"expected {_root_count(self.cartan_type)}"
            )
        for r in self.all_roots:
            neg = tuple(-c for c in r)
            if neg not in self._coroots:
                raise StructuralError("root set not closed under negation")
            if not (all(c >= 0 for c in r) or all(c <= 0 for c in r)):
                raise StructuralError("root with mixed-sign coefficients")

    # -- exact queries -----------------------------------------------------
    # Every pairing is an integer dot product against `sym` or the coroot
    # table.

    def inner2(self, u: Sequence, v: Sequence):
        """2 (u | v) for vectors in simple-root coordinates; an integer when
        u and v are."""
        return sum(ui * sum(map(mul, row, v)) for ui, row in zip(u, self.sym) if ui)

    def coroot(self, alpha: Sequence) -> Root:
        """The coroot of the root alpha in simple-coroot coordinates."""
        try:
            return self._coroots[tuple(alpha)]
        except KeyError:
            raise ValueError(f"{tuple(alpha)} is not a root") from None

    def weight_coords(self, v: Sequence) -> tuple:
        """Values of a simple-root-coordinate vector on the simple coroots."""
        return tuple(sum(map(mul, v, col)) for col in zip(*self.cartan))

    def coroot_pairing(self, phi: Sequence, alpha: Sequence):
        """phi evaluated on the coroot of the root alpha: 2 (phi|alpha) / (alpha|alpha).

        phi is given in simple-root coordinates (rational entries allowed).
        """
        return sum(map(mul, self.weight_coords(phi), self.coroot(alpha)))

    def is_root(self, v: Sequence) -> bool:
        if len(v) != self.rank:
            raise ValueError("dimension mismatch")
        # a number equal to an int hashes and compares as that int
        return tuple(v) in self._coroots

    def fundamental_weight(self, i: int) -> tuple[Fraction, ...]:
        """The i-th fundamental weight in simple-root coordinates."""
        return _fundamental_weights(self)[i]


@lru_cache(maxsize=None)
def build_root_system(t: CartanType) -> RootSystem:
    return RootSystem(t)


@lru_cache(maxsize=None)
def _fundamental_weights(rs: RootSystem) -> tuple[tuple[Fraction, ...], ...]:
    # omega_i solves <omega_i, alpha_j^vee> = delta_ij; the system matrix is
    # the transposed Cartan matrix acting on simple-root coordinates
    n = rs.rank
    ct = [[rs.cartan[i][j] for i in range(n)] for j in range(n)]
    return tuple(solve_linear(ct, [int(j == i) for j in range(n)]) for i in range(n))
