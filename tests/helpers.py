"""Independent oracles, generators and a collector pause for the tests.

These deliberately re-derive results by a different route than the
package (scalar loops, wider enumeration margins) so agreement is
evidence, not tautology.
"""

import contextlib
import gc
import itertools

import numpy as np

from matterbridge.crystal import Structure
from matterbridge.tensor import Tensor, gelu


def supercell_neighbor_list(s, cutoff):
    """Brute-force neighbor enumeration over an oversized supercell.

    Scalar loop over every atom pair and every image cell in a box one
    shell larger than strictly needed; returns a sorted list of
    (i, j, (m0, m1, m2), distance).
    """
    lat = np.asarray(s.lattice, dtype=float)
    cart = s.frac_coords @ lat
    n = len(cart)
    inv = np.linalg.inv(lat)
    bound = np.floor(cutoff * np.linalg.norm(inv, axis=0) + 1.0).astype(int) + 1

    found = []
    for m in itertools.product(
        range(-bound[0], bound[0] + 1),
        range(-bound[1], bound[1] + 1),
        range(-bound[2], bound[2] + 1),
    ):
        shift = m[0] * lat[0] + m[1] * lat[1] + m[2] * lat[2]
        for i in range(n):
            for j in range(n):
                if i == j and m == (0, 0, 0):
                    continue
                delta = cart[j] + shift - cart[i]
                d = float(np.sqrt(delta @ delta))
                if d <= cutoff:
                    found.append((i, j, m, d))
    found.sort(key=lambda rec: (rec[0], rec[1], rec[2]))
    return found


def random_structure(rng, n_min=1, n_max=8):
    """Random triclinic cell with determinant bounded away from zero."""
    while True:
        lat = rng.uniform(-2.0, 2.0, (3, 3)) + np.diag(rng.uniform(2.5, 4.0, 3))
        det = np.linalg.det(lat)
        if det < 0:
            lat[[0, 1]] = lat[[1, 0]]
            det = -det
        if det > 3.0:
            break
    n = int(rng.integers(n_min, n_max + 1))
    species = list(rng.choice(["Si", "C", "O", "Fe", "Ga", "N"], size=n))
    frac = rng.random((n, 3))
    return Structure(
        material_id=f"rand-{rng.integers(1 << 30)}",
        lattice=lat,
        species=species,
        frac_coords=frac,
    )


@contextlib.contextmanager
def collector_paused():
    """Run the block with Python's cyclic garbage collector off and no
    cyclic garbage left from before, so ``gc.collect()`` inside it counts
    only the cycles the block made.  GELU runs once first: its first call
    imports scipy, which leaves cyclic garbage once per process."""
    gelu(Tensor(np.zeros(1)))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        yield
    finally:
        if was_enabled:
            gc.enable()
