"""Combinatorial bipartite maps: monodromy analysis and structure classes.

A dessin is a finite dart set with two permutations acting on it.  Regular
dessins are recognized by their monodromy group acting freely and
transitively; extra structures on a regular dessin are homomorphism images
inside the monodromy group, classified up to the triple isomorphism that
fixes the distinguished pair and conjugates the images.
"""

from __future__ import annotations

from collections import namedtuple

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


class DessinXY:
    """A dart set with its two permutations."""

    def __init__(self, darts: int, x: Perm, y: Perm) -> None:
        if len(x) != darts or len(y) != darts:
            raise DessinError("permutations must act on exactly the dart set")
        self.darts, self.x, self.y = darts, x, y


class DessinAnalysis(
    namedtuple("DessinAnalysis", "monodromy_order transitive regular table")
):
    """Monodromy facts for one dessin."""

    __slots__ = ()


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
    return [z for z, o in zip(classes.reps, classes.class_orders) if n % o == 0]
