"""A standing gate on Brauer-row mutants: how many wrong Brauer tables every check lets through.

Each mutant replaces one Brauer row phi_b by phi_b + phi_a or phi_b - phi_a,
a != b, keeping the degree positive.  Such a row is what the pipeline would
produce if the chop certified a reducible module and missed a simple.  Each
mutant table is fed to block_system in place of the computed one, and its
system to verify_system and system_violations.
"""

import dataclasses
from collections import Counter

from pblocks import blocks
from pblocks.blocks import block_system
from pblocks.corpus import DEFAULT_CORPUS
from pblocks.errors import BlockEngineError
from pblocks.harness import block_record, system_violations, verify_system
from pblocks.modrep import brauer_table

# the most mutants of each (group, prime) that pass every check today; a
# later check lowers its entries, and a rise means that a catch was lost
SURVIVORS = {
    ("S4", 2): 1,
    ("A5", 2): 2, ("A5", 3): 1, ("A5", 5): 1,
    ("S5", 2): 2, ("S5", 3): 2, ("S5", 5): 4,
    ("PSL(2,7)", 2): 2, ("PSL(2,7)", 3): 1, ("PSL(2,7)", 7): 3,
    ("SL(2,8)", 2): 15, ("SL(2,8)", 3): 1, ("SL(2,8)", 7): 1,
}


def _mutants(btab):
    """Yield every table with one row phi_b replaced by phi_b +- phi_a of positive degree."""
    rows, dims = btab.rows, btab.dims
    for b in range(len(rows)):
        for a in range(len(rows)):
            for sign in (1, -1):
                if a == b or dims[b] + sign * dims[a] <= 0:
                    continue
                row = tuple(x + y if sign == 1 else x - y for x, y in zip(rows[b], rows[a]))
                yield dataclasses.replace(
                    btab,
                    rows=rows[:b] + (row,) + rows[b + 1:],
                    dims=dims[:b] + (dims[b] + sign * dims[a],) + dims[b + 1:],
                )


def _survives(name, group, p, mutant, monkeypatch) -> bool:
    """Tell whether a mutant table passes block_system, verify_system and system_violations."""
    monkeypatch.setattr(blocks, "brauer_table", lambda *args, **kwargs: mutant)
    try:
        system = block_system(group, p)
    except BlockEngineError:
        return False
    records = [block_record(system, block) for block in system.blocks]
    return all(verify_system(system).values()) and not system_violations(name, system, records)


def test_brauer_row_mutants_survive_no_more_than_the_table(monkeypatch):
    """Sweep the 395 mutants of the default (group, prime) pairs.

    280 raise NonIntegralSolution, 68 raise CrossBlockEntry, 11 fail a
    verify key or a bound, and 36 survive.  At p = 2, with the rows indexed
    from 0 in the sorted Brauer table, the survivors are:
    S4 phi_1 - phi_0; A5 phi_1 + phi_0 and phi_2 + phi_0; S5 phi_1 + phi_0
    and phi_1 - phi_0; PSL(2,7) phi_1 - phi_0 and phi_2 - phi_0; SL(2,8)
    phi_b + phi_0 for b = 1..6, phi_4 - phi_1, phi_4 - phi_2, phi_4 + phi_3,
    phi_5 - phi_1, phi_5 + phi_2, phi_5 - phi_3, phi_6 + phi_1,
    phi_6 - phi_2 and phi_6 - phi_3.
    """
    made = 0
    survivors = Counter()
    for entry in DEFAULT_CORPUS:
        if entry.large:
            continue
        group = entry.build()
        for p in entry.target_primes(group):
            for mutant in _mutants(brauer_table(group, p)):
                made += 1
                survivors[entry.name, p] += _survives(entry.name, group, p, mutant, monkeypatch)
    assert made == 395
    over = {key: n for key, n in survivors.items() if n > SURVIVORS.get(key, 0)}
    assert over == {}
