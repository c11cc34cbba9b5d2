"""The catalog of Hermitian symmetric pairs and the compact/noncompact split.

A pair is a Cartan type together with a distinguished simple-root node whose
coefficient in the highest root is 1 (a cominuscule node).  That single
condition encodes the dichotomy that every positive root carries that node
with coefficient 0 (compact) or 1 (noncompact), which is what makes the
noncompact root spaces an Abelian pair of subspaces.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .rootsystem import CartanType, Root, RootSystem, StructuralError, build_root_system


class _HermitianPair(NamedTuple):
    cartan_type: CartanType
    node: int  # 0-based index of the distinguished simple root
    label: str  # stable CLI token, e.g. "su23", "sp3", "sostar10", "so2_5"
    name: str  # display name, e.g. "su(2,3)"


class HermitianPair(_HermitianPair):
    __slots__ = ()

    def __new__(cls, cartan_type: CartanType, node: int, label: str, name: str):
        self = super().__new__(cls, cartan_type, node, label, name)
        rs = self.root_system
        if not (0 <= node < rs.rank):
            raise ValueError("node index out of range")
        if rs.highest_root[node] != 1:
            raise ValueError(
                f"{name}: node {node + 1} is not cominuscule "
                f"(highest-root coefficient {rs.highest_root[node]})"
            )
        return self

    @property
    def root_system(self) -> RootSystem:
        return build_root_system(self.cartan_type)

    def __str__(self) -> str:
        return self.label


class RootPartition(NamedTuple):
    compact_pos: tuple[Root, ...]
    noncompact_pos: tuple[Root, ...]


@lru_cache(maxsize=1)
def _catalog_entries() -> dict[str, tuple[CartanType, int, str, str]]:
    # label -> (cartan type, node, label, name) in catalog order; building a
    # HermitianPair builds its root system, so only the entries are listed
    entries = [(CartanType("A", t - 1), p - 1, f"su{p}{t - p}", f"su({p},{t - p})")
               for t in range(2, 9) for p in range(1, t // 2 + 1)]
    entries += [(CartanType("C", n), n - 1, f"sp{n}", f"sp({n},R)") for n in range(2, 8)]
    so2 = [(CartanType("B", n), 0, f"so2_{2*n-1}", f"so(2,{2*n-1})") for n in range(2, 8)]
    so2 += [(CartanType("D", n), 0, f"so2_{2*n-2}", f"so(2,{2*n-2})") for n in range(3, 8)]
    entries += sorted(so2, key=lambda e: int(e[2].split("_")[1]))
    entries += [(CartanType("D", n), n - 1, f"sostar{2*n}", f"so*({2*n})") for n in range(3, 8)]
    entries += [(CartanType("E6", 6), 0, "e3iii", "E III"), (CartanType("E7", 7), 6, "e7vii", "E VII")]
    return {e[2]: e for e in entries}


@lru_cache(maxsize=None)
def _pair(label: str) -> HermitianPair:
    return HermitianPair(*_catalog_entries()[label])


def catalog() -> tuple[HermitianPair, ...]:
    """All supported pairs: su(p,q) for p+q <= 8, the classical rank <= 7
    families, and both exceptional domains."""
    return tuple(map(_pair, _catalog_entries()))


_ALIASES = {"e6iii": "e3iii", "eiii": "e3iii", "evii": "e7vii"}


def pair_by_label(label: str) -> HermitianPair:
    """The catalog pair with this label or alias; builds only its root system."""
    key = _ALIASES.get(label.lower(), label.lower())
    if key not in _catalog_entries():
        raise KeyError(f"unknown pair label {label!r}")
    return _pair(key)


@lru_cache(maxsize=None)
def partition_roots(pair: HermitianPair) -> RootPartition:
    """Split the positive roots by the coefficient of the distinguished node."""
    rs = pair.root_system
    compact, noncompact = [], []
    for alpha in rs.positive_roots:
        c = alpha[pair.node]
        if c == 0:
            compact.append(alpha)
        elif c == 1:
            noncompact.append(alpha)
        else:
            raise StructuralError(
                f"{pair.name}: positive root {alpha} has node coefficient {c}"
            )
    return RootPartition(tuple(compact), tuple(noncompact))


def dim_p_plus(pair: HermitianPair) -> int:
    """Complex dimension of the domain = number of noncompact positive roots."""
    return len(partition_roots(pair).noncompact_pos)


def compact_nodes(pair: HermitianPair) -> tuple[int, ...]:
    """Indices of the simple roots of the semisimple part of k."""
    return tuple(i for i in range(pair.root_system.rank) if i != pair.node)
