"""Adams and Ferus numbers, and the equality scan over the pair database.

A(k) counts the independent vector fields on the (k-1)-sphere: writing
k = (2s+1) * 2^t and t = c + 4d with 0 <= c <= 3, A(k) = 2^c + 8d - 1.
F(l) is the least k with A(k) + k >= l; a Gauss map of rank below F(l)
forces the submanifold to be a great sphere, so degenerate orbits with
r = F(l) sit exactly on that boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from . import orbits, pairdb, rootsys


def adams(k: int) -> int:
    if k < 1:
        raise ValueError(f"adams({k}): k must be >= 1")
    t = (k & -k).bit_length() - 1  # 2-adic valuation
    c, d = t % 4, t // 4
    return 2**c + 8 * d - 1


@dataclass(frozen=True)
class FerusCertificate:
    """Minimal k with A(k) + k >= l, plus the verified minimality range."""

    l: int
    F: int
    witness_k: int
    minimality_checked_up_to: int

    def __post_init__(self):
        if self.F != self.witness_k or self.minimality_checked_up_to != self.F - 1:
            raise ValueError(f"inconsistent certificate: {self}")


def ferus(l: int) -> FerusCertificate:
    """Ascending scan for F(l), started just below l; O(log l) steps.

    With t the 2-adic valuation of k, A(k) <= 2t + 1 <= 2*log2(k) + 1, so
    every k < l - 2*l.bit_length() - 1 has A(k) + k < l: that bound proves
    minimality below the start, and the scan checks it above.  The scan
    terminates because A(l) + l >= l.
    """
    if l < 1:
        raise ValueError(f"ferus({l}): l must be >= 1")
    k = max(1, l - 2 * l.bit_length() - 1)
    while adams(k) + k < l:
        k += 1
    return FerusCertificate(l=l, F=k, witness_k=k, minimality_checked_up_to=k - 1)


# Largest --qmax and --lmax of `ferus --verify-identities`, a guard against
# runaway input.  In a fresh Python 3.11 process on a 2-vCPU Xeon VM the
# run takes (median of 3) 0.72 s at qmax 100, 1.26 s at 128 and 1.94 s at
# 150, about 6x per doubling; and 1.64 s at lmax 100 000 and 2.15 s at
# 120 000, linear in lmax.  Each cap is the value near 2 s.
MAX_QMAX = 150
MAX_LMAX = 120_000


def ferus_identity_check(q: int) -> bool:
    """Check F(2^q + a) = 2^q for all 0 <= a <= 2^c + 8d - 1 with q = c + 4d."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    c, d = q % 4, q // 4
    bound = 2**c + 8 * d - 1
    return all(ferus(2**q + a).F == 2**q for a in range(bound + 1))


DEFAULT_P_RANGE = (2, 16)
DEFAULT_N_RANGE = (0, 16)


@dataclass(frozen=True)
class ScanRow:
    pair: str
    p: int | None
    n: int | None
    orbit: str
    degenerate: bool
    l: int
    r: int
    ferus_l: int = field(metadata={"header": "F(l)"})
    equality: bool


def equality_scan(
    db: pairdb.PairDatabase,
    p_range: tuple[int, int] = DEFAULT_P_RANGE,
    n_range: tuple[int, int] = DEFAULT_N_RANGE,
) -> list[ScanRow]:
    """Each orbit the scan sweeps at each (p, n) of each family's grid; flag F(l) = r.

    The orbits go through the highest root of each class with a count row
    in rootsys.HIGHEST_COUNTS.  l is that row times the multiplicities, and
    r = l - m(class) when `orbits.rule_for` calls the orbit degenerate, else
    l: polynomials in p and n formed once per family, so nothing is built.
    Non-degenerate rows carry equality=False: F(l) = r concerns degenerate orbits.
    """
    rows: list[ScanRow] = []
    ferus_of = cache(lambda l: ferus(l).F)  # F once per distinct l
    for family in db:
        classes = rootsys.CLASSES[family.family]
        labels = rootsys.length_labels(length for _, length, _ in classes)
        mult = {labels[length]: m for (_, length, _), (_, m) in zip(classes, family.mult)}
        scanned = []
        for spec, counts in rootsys.HIGHEST_COUNTS[family.family].items():
            l = family.class_sum(counts)
            degenerate = orbits.rule_for(spec, family.family) in orbits.DEGENERATE_RULES
            scanned.append((spec, degenerate, l, l - mult[spec] if degenerate else l))
        for p, n in family.grid(p_range, n_range):
            for spec, degenerate, l_of, r_of in scanned:
                l, r = l_of(p, n), r_of(p, n)
                f = ferus_of(l)
                rows.append(ScanRow(family.key, p, n, spec, degenerate, l, r, f,
                                    degenerate and f == r))
    return rows
