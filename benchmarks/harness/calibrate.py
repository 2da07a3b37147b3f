"""Fixed pure-Python work that gauges how fast the machine runs right now.

    python calibrate.py   # prints the seconds the work took

run.py runs this in its own process between benchmark children.  It does
not import lensframe, so a change to the package cannot change it.
"""

import time

import arith

start = time.perf_counter()
for p in range(1001, 1201, 2):
    arith.table_lines(p)
print(time.perf_counter() - start)
