"""Combinatorial bipartite maps: monodromy analysis and structure classes.

A dessin is a finite dart set with two permutations acting on it.  Regular
dessins are recognized by their monodromy group acting freely and
transitively; extra structures on a regular dessin are homomorphism images
inside the monodromy group, classified up to the triple isomorphism that
fixes the distinguished pair and conjugates the images.
"""

from __future__ import annotations

from dataclasses import dataclass

# extend_pair_map is re-exported: perfbench/spans.py traces it under this name
from .autgroup import extend_pair_map  # noqa: F401
from .permcore import (
    DEFAULT_CAP,
    ConjugacyClassTable,
    ElementTable,
    Perm,
    generates,
    orbit,
    parse_cycles,
    read_permutation_file,
)


class DessinError(ValueError):
    pass


@dataclass
class DessinXY:
    """A dart set with its two permutations."""

    darts: int
    x: Perm
    y: Perm

    def __post_init__(self) -> None:
        if len(self.x) != self.darts or len(self.y) != self.darts:
            raise DessinError("permutations must act on exactly the dart set")


@dataclass
class DessinAnalysis:
    """Monodromy facts for one dessin."""

    monodromy_order: int
    transitive: bool
    regular: bool
    table: ElementTable


def load_dessin(path: str) -> DessinXY:
    """Read a dessin file: a darts line, then cycle lines for x and y.

    Blank lines and lines starting with # are ignored.
    """
    darts, body = read_permutation_file(path, "darts", DessinError)
    if len(body) != 2:
        raise DessinError(f"{path}: expected exactly two permutation lines")
    return DessinXY(darts, *(parse_cycles(ln, darts) for ln in body))


def analyze_dessin(d: DessinXY, cap: int = DEFAULT_CAP) -> DessinAnalysis:
    """Compute the monodromy group and the regularity verdict."""
    table = ElementTable([d.x, d.y], d.darts, cap=cap)
    transitive = len(orbit([d.x, d.y], 0)) == d.darts
    regular = transitive and table.order == d.darts
    return DessinAnalysis(
        monodromy_order=table.order,
        transitive=transitive,
        regular=regular,
        table=table,
    )


def cyclic_structures(
    classes: ConjugacyClassTable, pair: tuple[int, int], n: int
) -> list[int]:
    """The one-generator structures of order dividing n on a pair, as the ids
    of their images.

    Every candidate shares the generating pair, and the only automorphism
    fixing a generating pair is the identity, so two candidates are
    isomorphic exactly when their images are conjugate: one structure per
    conjugacy class, on its least element id.
    """
    if n < 1:
        raise DessinError("cyclic order must be positive")
    table = classes.table
    gens = [table.elements[e] for e in pair]
    if not generates(gens, table.degree, table.order):
        raise DessinError("the pair must generate the group")
    return [z for z in classes.reps if n % table.element_order(z) == 0]
