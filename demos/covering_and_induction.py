"""Relate blocks of a group to blocks of a normal subgroup three different ways."""

from pblocks import (
    block_orbit,
    block_system,
    covered_blocks,
    induced_block,
    inflation_correspondence,
)
from pblocks.corpus import (
    DEFAULT_SCENARIOS,
    alternating_group,
    symmetric_group,
)
from pblocks.perm import PermGroup, perm_from_cycles, perm_mul


def induction_story():
    print("1) Induction from a normal subgroup: S3 over its rotation subgroup, p = 2.")
    ambient = symmetric_group(3)
    sub = PermGroup(3, [perm_from_cycles(3, [(1, 2, 3)])])
    asys = block_system(ambient, 2)
    ssys = block_system(sub, 2)
    for block in ssys.blocks:
        orbit = block_orbit(asys, ssys, block.index)
        target, values = induced_block(asys, ssys, block)
        where = f"block {target.index} of S3" if target is not None else "undefined"
        print(f"  subgroup block {block.index}: conjugation orbit {orbit},"
              f" induced image {where} (class values {[str(v) for v in values]})")
    print("  The two nontrivial linear blocks fuse into the defect-zero block of S3,")
    print("  and tau is preserved: both sides give 1.\n")


def covering_story():
    print("2) Covering: blocks of S4 over blocks of A4 at p = 3.")
    ambient = symmetric_group(4)
    sub = alternating_group(4)
    asys = block_system(ambient, 3)
    ssys = block_system(sub, 3)
    covering = covered_blocks(asys, ssys)
    for bi in sorted(covering):
        block = asys.blocks[bi]
        taus = [str(ssys.blocks[ci].tau) for ci in covering[bi]]
        print(f"  S4 block {bi} (tau {block.tau}) covers A4 blocks"
              f" {covering[bi]} with tau {taus}")
    print("  The quotient S4/A4 has order 2, prime to 3, so tau matches exactly.\n")


def inflation_story():
    print("3) Inflation through a central quotient: SL(2,3) over its center, p = 2.")
    from pblocks.corpus import special_linear_2_3

    group = special_linear_2_3()
    gsys = block_system(group, 2)
    center = group.subgroup(
        [g for g in group.elements()
         if all(perm_mul(g, h) == perm_mul(h, g) for h in group.generators)]
    )
    action = group.coset_action(center)
    qsys = block_system(action.quotient, 2)
    char_map, ibr_map = inflation_correspondence(gsys, action, qsys)
    print(f"  quotient is A4 (order {action.quotient.order()}),"
          f" center has order {center.order()}")
    big = gsys.principal_block()
    small = qsys.principal_block()
    print("  SL(2,3) Cartan matrix:")
    for row in big.cartan:
        print(f"    {list(row)}")
    print("  A4 Cartan matrix (each entry doubles upstairs):")
    for row in small.cartan:
        print(f"    {list(row)}")
    print(f"  simple correspondence (quotient -> ambient): {list(ibr_map)}")
    print(f"  character correspondence: {list(char_map)}\n")


def main():
    induction_story()
    covering_story()
    inflation_story()
    print("The same bindings run as checks:",
          ", ".join(s.name for s in DEFAULT_SCENARIOS))


if __name__ == "__main__":
    main()
