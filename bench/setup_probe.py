"""Cold-start probe for ``setup_s``: import kerpair from the given source
directory, then build the ring and parse the matrices of every file
named on the command line.  run.py times this whole process, interpreter
start included, several times and reports the median.

    python3 bench/setup_probe.py SRC_DIR FILE...
"""

import sys

sys.path.insert(0, sys.argv[1])

from kerpair.cli import parse_matrix_file  # noqa: E402

for path in sys.argv[2:]:
    with open(path) as f:
        parse_matrix_file(f.read())
