#!/usr/bin/env python
"""Beyond the crossbar: multistage fabric constraints.

Section 4 of the paper notes that non-crossbar fabrics impose richer
constraints on what a single configuration may contain, and the
conclusion lists extending the design to such fabrics as ongoing work.
This example explores both canonical cases on 16 ports:

* an **Omega** network — blocking: we count how many random permutations
  it can realise in one pass and how many passes a greedy partition needs
  (the multistage analogue of raising the multiplexing degree);
* a **Benes** network — rearrangeably non-blocking: the looping algorithm
  routes *any* permutation, and we verify the computed 2x2 switch
  settings by tracing every input;
* a tapered **binary fat tree** (``repro.topo.binary_fat_tree``) — trunk
  capacity, not permutation, is the constraint: we count the greedy
  passes random permutations need as the taper thins the upper levels.

Run:  python examples/multistage_fabrics.py
"""

import numpy as np

from repro.fabric.config import ConfigMatrix
from repro.fabric.multistage import BenesNetwork, OmegaNetwork
from repro.sched.constrained import partition
from repro.topo import binary_fat_tree


def main() -> None:
    n = 16
    rng = np.random.default_rng(7)

    # -- Omega: how blocking is it? -----------------------------------------
    omega = OmegaNetwork(n)
    trials = 500
    realizable = 0
    passes_needed = []
    for _ in range(trials):
        perm = [int(x) for x in rng.permutation(n)]
        cfg = ConfigMatrix.from_permutation(perm)
        if omega.is_realizable(cfg):
            realizable += 1
        passes_needed.append(len(partition(omega, cfg)))
    print(f"Omega network, {n} ports, {trials} random permutations:")
    print(f"  realizable in one pass : {realizable / trials:7.1%}")
    print(f"  mean greedy passes     : {np.mean(passes_needed):7.2f}")
    print(f"  worst case             : {max(passes_needed)} passes")

    # the identity permutation always routes
    identity = ConfigMatrix.from_permutation(list(range(n)))
    assert omega.is_realizable(identity)
    print("  identity permutation   : conflict-free (as expected)")

    # -- Benes: rearrangeably non-blocking ------------------------------------
    benes = BenesNetwork(n)
    print(f"\nBenes network, {n} ports ({benes.n_stages} switch stages):")
    ok = 0
    for _ in range(trials):
        perm = [int(x) for x in rng.permutation(n)]
        stages = benes.route_permutation(perm)
        if benes.verify(perm, stages):
            ok += 1
    print(f"  looping algorithm routed and verified {ok}/{trials} permutations")

    # show one routing in detail
    perm = [int(x) for x in rng.permutation(n)]
    stages = benes.route_permutation(perm)
    crossed = sum(sum(stage) for stage in stages)
    total = sum(len(stage) for stage in stages)
    print(f"  example permutation    : {perm}")
    print(f"  crossed switches       : {crossed}/{total}")
    # -- fat tree: capacity, not permutation, is the constraint ---------------
    print(f"\nFat trees, {n} leaves, random permutations:")
    for taper in (1, 2, 4):
        ft = binary_fat_tree(n, taper=taper)
        passes = [
            len(partition(ft, ConfigMatrix.from_permutation(
                [int(x) for x in rng.permutation(n)])))
            for _ in range(trials)
        ]
        print(
            f"  taper {taper}:1 -> mean {np.mean(passes):5.2f} passes,"
            f" worst {max(passes)}"
        )

    print(
        "\nImplication for TDM: on a Benes fabric every configuration that is"
        "\na partial permutation remains realisable, so the paper's scheduler"
        "\ncarries over; on an Omega fabric the pre-scheduling logic must also"
        "\ncheck link-disjointness, and on a tapered fat tree it must respect"
        "\nper-level edge capacities — both ship as fabric-constraint objects"
        "\nthat plug straight into repro.sched.ConstrainedScheduler."
    )


if __name__ == "__main__":
    main()
