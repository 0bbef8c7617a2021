"""The good-prime scan as a loop over full local data, kept as a test-only
oracle.

This is `drinlat.goodprime.find_good_prime` as it was before the scan
read condition (i) off `splitting_pattern` and skipped the local linear
algebra of condition (iii) at primes with no twist and no level matrix.
At every prime it factors the defining polynomial (`splitting`) and
conjugates the companion block by g*s (`_stability_witness`), so the
differential test in `tests/test_goodprime.py` compares the scan with
an independent decision of each condition.
"""

from __future__ import annotations

from typing import Optional

from drinlat.errors import MalformedInput, UnsupportedRamifiedPrime
from drinlat.extension import index_iX, predegree, splitting
from drinlat.ffpoly import enumerate_primes, poly_to_str
from drinlat.goodprime import (FindReport, FindResult, GoodPrimeCertificate,
                               SubvarietyDatum, _stability_witness,
                               is_good_prime, shrink_level)
from drinlat.localfield import DEFAULT_BUDGET, DEFAULT_PRECISION


def find_good_prime_full(datum: SubvarietyDatum, N: int, max_degree: int = 6,
                         budget: int = DEFAULT_BUDGET,
                         i_of_x: Optional[int] = None,
                         precision: int = DEFAULT_PRECISION) -> FindResult:
    """Scan primes in enumeration order, deciding (i) by factoring and
    (iii) by conjugating the companion block at every prime."""
    ext = datum.extension
    idx = i_of_x if i_of_x is not None else index_iX(datum, budget)
    if idx < 1:
        raise MalformedInput("datum index must be >= 1")
    d_of_x = predegree(ext, idx)
    counters = {"i": 0, "ii": 0, "iii": 0, "iv": 0, "unsupported": 0}
    scanned = 0
    for prime in enumerate_primes(ext.base, max_degree):
        scanned += 1
        try:
            sp = splitting(ext, prime)
        except UnsupportedRamifiedPrime:
            counters["unsupported"] += 1
            continue
        if sp.degree_one_place() is None:
            counters["i"] += 1
            continue
        lvl = datum.level.at(prime)
        if lvl.kind != "maximal":
            counters["ii"] += 1
            continue
        s = lvl.s_matrix(prime, datum.r, precision)
        try:
            stable, _ = _stability_witness(datum, prime, s, precision)
        except UnsupportedRamifiedPrime:
            counters["unsupported"] += 1
            continue
        if not stable:
            counters["iii"] += 1
            continue
        if prime.residue_size ** N >= d_of_x:
            counters["iv"] += 1
            continue
        shrunk, index = shrink_level(datum.level, prime, s, precision)
        refined = datum.with_level(shrunk)
        cert = is_good_prime(refined, prime, precision)
        if not isinstance(cert, GoodPrimeCertificate):
            raise AssertionError(
                "re-certification after shrinking must succeed")
        report = FindReport(scanned, counters, poly_to_str(prime.poly), d_of_x)
        return FindResult(True, cert, shrunk, index, report)
    report = FindReport(scanned, counters, None, d_of_x)
    return FindResult(False, None, None, None, report)
