"""Set-up as a user pays it: a fresh interpreter imports the package and
builds the catalogs the workload reads.

    python3 cold_start.py [labels ...]    e.g. e1,e2,e5,e6,e11

Prints one line: import seconds, catalog seconds, catalog sizes.
"""

import sys
import time

began = time.perf_counter()
import hassemine  # noqa: E402

imported = time.perf_counter()
sizes = [
    len(hassemine.enumerate_category(hassemine.LabelTable(tuple(spec.split(",")))))
    for spec in sys.argv[1:]
]
built = time.perf_counter()
print(imported - began, built - imported, *sizes)
