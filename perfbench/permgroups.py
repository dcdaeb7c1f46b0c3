"""Seeded non-nilpotent 2-generated groups, written as "cayley 1" files.

Every group is the closure of two permutations, computed here in pure
Python, so the tables do not come from the program under test.  The seed
picks the order of the dihedral group and, with a relabelling number, for
every group a random relabelling of the non-identity elements; the identity
stays at index 0, as the file format requires.

Why each group is in the workload:

- S3, A4, S4: the smallest non-nilpotent groups; Delta is small enough for
  every max-flow check and for the exact clique/chromatic scan.
- dihedral D_2m (m from the seed, never a power of 2): a family member whose
  size varies with the seed while its statuses do not.
- AGL(1,7), AGL(1,11), AGL(1,13): Frobenius groups C_p : C_(p-1); their
  lattices are wide in the middle, and AGL(1,13) (order 156) exceeds the
  clique/chromatic guard, so Q_CHROM is skipped there.
- A5, S5: insoluble; Q_CHROM finds omega < chi on both (8 < 9 and 13 < 15),
  which the scan reports as a counterexample, and the order-120 lattice is
  the heaviest in the workload.
- PSL(2,7): simple of order 168, the largest table; its Delta exceeds the
  flow and search guards, so only lattice work and the cheap checks run.
"""

from __future__ import annotations

import random
from pathlib import Path

# dihedral rotation orders the seed chooses from: not powers of 2 (so the
# group is not nilpotent) and small, so the choice barely moves run time
DIHEDRAL_M = (9, 10, 11, 12, 13, 14, 15)


def _cycle(points: int, *cycles: tuple[int, ...]) -> tuple[int, ...]:
    perm = list(range(points))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a] = b
    return tuple(perm)


def _affine(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Generators x -> x + 1 and x -> r*x of AGL(1,p), r a primitive root."""
    r = next(g for g in range(2, p)
             if len({pow(g, k, p) for k in range(1, p)}) == p - 1)
    return (tuple((x + 1) % p for x in range(p)),
            tuple((r * x) % p for x in range(p)))


def _psl27() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """x -> x + 1 and x -> -1/x on the projective line over F_7 (7 = infinity)."""
    inf = 7

    def neg_inv(x: int) -> int:
        if x == inf:
            return 0
        if x == 0:
            return inf
        return (-pow(x, -1, 7)) % 7

    shift = tuple((x + 1) % 7 if x != inf else inf for x in range(8))
    return shift, tuple(neg_inv(x) for x in range(8))


def generators(dihedral_m: int) -> dict[str, tuple[tuple[int, ...], ...]]:
    """Name -> two generating permutations, in workload order."""
    m = dihedral_m
    return {
        "S3": (_cycle(3, (0, 1)), _cycle(3, (0, 1, 2))),
        "A4": (_cycle(4, (0, 1, 2)), _cycle(4, (0, 1), (2, 3))),
        "S4": (_cycle(4, (0, 1, 2, 3)), _cycle(4, (0, 1))),
        "dihedral": (tuple((x + 1) % m for x in range(m)),
                     tuple((-x) % m for x in range(m))),
        "AGL1_7": _affine(7),
        "AGL1_11": _affine(11),
        "AGL1_13": _affine(13),
        "A5": (_cycle(5, (0, 1, 2)), _cycle(5, (0, 1, 2, 3, 4))),
        "S5": (_cycle(5, (0, 1)), _cycle(5, (0, 1, 2, 3, 4))),
        "PSL2_7": _psl27(),
    }


EXPECTED_ORDERS = {"S3": 6, "A4": 12, "S4": 24, "AGL1_7": 42, "AGL1_11": 110,
                   "AGL1_13": 156, "A5": 60, "S5": 120, "PSL2_7": 168}


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The product a*b acting on the right: x -> b(a(x))."""
    return tuple(b[x] for x in a)


def perm_closure(gens) -> list[tuple[int, ...]]:
    """All elements of <gens>, identity first, then in breadth-first order."""
    identity = tuple(range(len(gens[0])))
    elements = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = _compose(x, g)
                if y not in seen:
                    seen.add(y)
                    elements.append(y)
                    fresh.append(y)
        frontier = fresh
    return elements


def cayley_rows(elements: list[tuple[int, ...]], rng: random.Random) -> list[list[int]]:
    """Multiplication table under a random relabelling that fixes the identity."""
    n = len(elements)
    order = [0] + rng.sample(range(1, n), n - 1)   # new index -> old index
    index = {elements[old]: new for new, old in enumerate(order)}
    return [[index[_compose(elements[order[i]], elements[order[j]])]
             for j in range(n)] for i in range(n)]


def dihedral_m(seed: int) -> int:
    return random.Random(f"dihedral:{seed}").choice(DIHEDRAL_M)


def write_files(seed: int, directory: Path, relabelling: int = 0) -> list[Path]:
    """Write one Cayley file per group and return their paths in order.

    The seed fixes the dihedral order; the seed and ``relabelling`` together
    fix the relabelling of the elements.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"relabel:{seed}:{relabelling}")
    m = dihedral_m(seed)
    paths = []
    for name, gens in generators(m).items():
        elements = perm_closure(gens)
        want = 2 * m if name == "dihedral" else EXPECTED_ORDERS[name]
        if len(elements) != want:
            raise RuntimeError(f"{name}: closure has {len(elements)} elements, wanted {want}")
        rows = cayley_rows(elements, rng)
        path = directory / f"{name}.cayley"
        lines = ["cayley 1", str(len(rows))] + [" ".join(map(str, r)) for r in rows]
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths
