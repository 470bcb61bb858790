"""Write the generator files the CI jobs run `gsurf` on.

Usage: PYTHONPATH=src python .github/scripts/write_generator_files.py DIR

Each file in DIR is a JSON array of integer matrices, as `gsurf
invariants --gens` and `gsurf conic --gens` read: `swap5.json` holds the
full swap on five blowups, `e6.json` and `e7.json` the simple reflections
of W(E6) and W(E7), and `klein5.json` the three involutions of a Klein
four group on five blowups.  Only the standard library is needed, so the
script runs under `python -S`.
"""

import json
import sys

from gsurf.gconic import full_swap
from gsurf.selftest import klein_four_group, parity_consistent_partitions
from gsurf.weyl import simple_reflections


def dump(name, gens):
    with open(f"{sys.argv[1]}/{name}.json", "w") as fh:
        json.dump([[list(r) for r in g.mat] for g in gens], fh)


dump("swap5", [full_swap(5)])
dump("e6", simple_reflections(6))
dump("e7", simple_reflections(7))
dump("klein5", klein_four_group(5, next(parity_consistent_partitions(5)))[1:])
