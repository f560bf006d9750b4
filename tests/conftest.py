"""Session settings for the test suite.

Every test runs numpy on small matrices, and criterion 8 runs a second
interpreter beside the test process; BLAS worker threads only contend
for the cores there.  Pin them to one before numpy is first imported.
The results do not depend on the thread count.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
