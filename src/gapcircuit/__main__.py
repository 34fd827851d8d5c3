"""The command line's one entry: ``python -m gapcircuit`` and the installed script.

No gapcircuit code calls BLAS, so NumPy's BLAS is started with one thread
rather than one per CPU, whose idle spinning takes CPU from other processes.
A value the caller sets wins.  The default is set here, before ``cli``
loads NumPy, and not in the package, so importing gapcircuit as a library
leaves the environment alone.
"""

import os
import sys

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

from .cli import main  # noqa: E402  (NumPy reads the thread counts as it loads)

if __name__ == "__main__":
    sys.exit(main())
