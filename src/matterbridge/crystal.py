"""Periodic crystal structures, neighbor lists, and graph construction.

Conventions: lattice rows are the cell vectors in angstroms, cartesian
coordinates are ``frac @ lattice``, fractional coordinates live in
[0, 1).  Neighbor lists enumerate every periodic image pair with
distance <= cutoff; an atom never neighbors its own zero-offset image
but may neighbor its images in other cells.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ContractError, ParseError, ValidationError
from .ioutil import canonical_json

__all__ = [
    "ATOMIC_NUMBERS",
    "Structure",
    "CrystalGraph",
    "parse_structure",
    "structure_to_json",
    "vector_norms",
    "neighbor_list_pbc",
    "build_graph",
]

# Element symbols H..Pu, index = Z - 1.
_SYMBOLS = (
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co "
    "Ni Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb "
    "Te I Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re "
    "Os Ir Pt Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu"
).split()

ATOMIC_NUMBERS = {sym: z for z, sym in enumerate(_SYMBOLS, start=1)}


@dataclass
class Structure:
    material_id: str
    lattice: np.ndarray  # (3, 3) row vectors, angstrom
    species: list
    frac_coords: np.ndarray  # (n, 3) in [0, 1)

    def __post_init__(self):
        if not isinstance(self.species, (list, tuple)):
            raise ValidationError(
                f"species must be a list, got {type(self.species).__name__}")
        try:
            self.lattice = np.asarray(self.lattice, dtype=np.float64)
            self.frac_coords = np.asarray(self.frac_coords, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as e:
            raise ValidationError(
                f"lattice and frac_coords must be numeric arrays: {e}") from None
        self.species = list(self.species)
        _validate_structure(self)
        self.frac_coords = self.frac_coords % 1.0

    @property
    def n_atoms(self):
        return len(self.species)

    @property
    def cart_coords(self):
        return self.frac_coords @ self.lattice

    @property
    def volume(self):
        return float(np.linalg.det(self.lattice))

    @property
    def atomic_numbers(self):
        return np.array([ATOMIC_NUMBERS[s] for s in self.species], dtype=np.int64)


def _validate_structure(s):
    if s.lattice.shape != (3, 3):
        raise ValidationError(f"lattice must be 3x3, got {s.lattice.shape}")
    # Entries below 1e100 A keep the determinant finite (|det| < 1e302);
    # a cell of [[1e308, 0, 0], [0, 4, 0], [0, 0, 4]] would have volume inf.
    if not np.abs(s.lattice).max() < 1e100:
        raise ValidationError("lattice entries must be finite and below 1e100")
    det = np.linalg.det(s.lattice)
    if not det > 1e-9:
        raise ValidationError(f"lattice determinant must be positive, got {det}")
    if len(s.species) == 0:
        raise ValidationError("structure needs at least one atom")
    if s.frac_coords.shape != (len(s.species), 3):
        raise ValidationError(
            f"frac_coords shape {s.frac_coords.shape} does not match "
            f"{len(s.species)} species"
        )
    if not np.isfinite(s.frac_coords).all():
        raise ValidationError("frac_coords contain non-finite entries")
    for sym in s.species:
        if not isinstance(sym, str) or sym not in ATOMIC_NUMBERS:
            raise ValidationError(f"unknown element symbol {sym!r}")


@dataclass
class CrystalGraph:
    node_species: np.ndarray  # atomic numbers, (n,)
    edge_i: np.ndarray  # (E,)
    edge_j: np.ndarray  # (E,)
    edge_dist: np.ndarray  # (E,) angstrom

    @property
    def n_edges(self):
        return len(self.edge_i)


# -- parsing -----------------------------------------------------------------


def parse_structure(data, fmt="structure-json"):
    """Parse ``data`` (bytes or str) in the named format into a Structure."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"structure file is not UTF-8: {e}") from None
    if fmt == "structure-json":
        return _parse_structure_json(data)
    if fmt == "cif-subset":
        return _parse_cif(data)
    raise ContractError(f"unknown structure format {fmt!r}")


def _parse_structure_json(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno, column=e.colno) from None
    return structure_from_dict(obj)


_STRUCTURE_KEYS = frozenset(("material_id", "lattice", "species", "frac_coords"))
_NUMBER_TYPES = frozenset((int, float))  # bool is neither


def structure_from_dict(obj):
    """Structure from a decoded JSON object with exactly its four keys and
    a string ``material_id``.

    Checked here rather than by ``ioutil.fields_from_json``: every
    records file ``embed`` and ``eval`` read is parsed through here, and
    the generic decoder made a parse of 2,048 records ~1.4 ms slower.
    The entries of ``lattice`` and ``frac_coords`` must be JSON numbers,
    which numpy would otherwise coerce from strings and bools; Structure
    itself checks and converts the three values.
    """
    if type(obj) is not dict:
        raise ValidationError("structure JSON must be an object")
    if obj.keys() != _STRUCTURE_KEYS:
        raise ValidationError(
            f"structure JSON keys must be {sorted(_STRUCTURE_KEYS)}, "
            f"got {sorted(obj)}")
    if type(obj["material_id"]) is not str:
        raise ValidationError("structure material_id must be a string, not "
                              f"{type(obj['material_id']).__name__}")
    for key in ("lattice", "frac_coords"):
        try:
            numbers = _NUMBER_TYPES.issuperset(
                map(type, chain.from_iterable(obj[key])))
        except TypeError:  # not rows of entries: Structure rejects it
            continue
        if not numbers:
            raise ValidationError(f"structure {key} entries must be numbers")
    return Structure(**obj)


def structure_to_dict(s):
    return {
        "material_id": s.material_id,
        "lattice": [[float(x) for x in row] for row in s.lattice],
        "species": list(s.species),
        "frac_coords": [[float(x) for x in row] for row in s.frac_coords],
    }


def structure_to_json(s):
    return canonical_json(structure_to_dict(s))


def _cif_number(tok, lineno):
    # strip a trailing parenthesized uncertainty like 3.035(2)
    if tok.endswith(")") and "(" in tok:
        tok = tok[: tok.index("(")]
    try:
        return float(tok)
    except ValueError:
        raise ParseError(f"bad numeric field {tok!r}", line=lineno) from None


def _parse_cif(text):
    """Minimal CIF reader: cell lengths/angles plus fractional site loop.

    No symmetry-operation expansion; the file must list every site.
    """
    cell = {}
    material_id = "cif"
    lines = text.splitlines()
    sites = []
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        if line.startswith("data_"):
            material_id = line[5:].strip() or "cif"
        elif line.startswith("_cell_"):
            parts = line.split()
            if len(parts) >= 2:
                cell[parts[0]] = _cif_number(parts[1], i + 1)
        elif line == "loop_":
            headers = []
            j = i + 1
            while j < len(lines) and lines[j].strip().startswith("_"):
                headers.append(lines[j].strip().split()[0])
                j += 1
            if "_atom_site_fract_x" in headers:
                for key in ("_atom_site_fract_y", "_atom_site_fract_z"):
                    if key not in headers:
                        raise ParseError(f"atom-site loop lacks {key}",
                                         line=i + 1)
                while j < len(lines):
                    row = lines[j].strip()
                    if not row or row.startswith(("_", "loop_", "data_", "#")):
                        break
                    toks = row.split()
                    if len(toks) < len(headers):
                        raise ParseError("short atom-site row", line=j + 1)
                    rec = dict(zip(headers, toks))
                    sym = rec.get("_atom_site_type_symbol") or rec.get(
                        "_atom_site_label"
                    )
                    if sym is None:
                        raise ParseError("atom-site loop lacks a symbol column",
                                         line=j + 1)
                    sym = sym.rstrip("0123456789+-")
                    sites.append(
                        (
                            sym,
                            _cif_number(rec["_atom_site_fract_x"], j + 1),
                            _cif_number(rec["_atom_site_fract_y"], j + 1),
                            _cif_number(rec["_atom_site_fract_z"], j + 1),
                        )
                    )
                    j += 1
                i = j
                continue
            i = j
            continue
        i += 1

    needed = [
        "_cell_length_a", "_cell_length_b", "_cell_length_c",
        "_cell_angle_alpha", "_cell_angle_beta", "_cell_angle_gamma",
    ]
    for key in needed:
        if key not in cell:
            raise ParseError(f"missing {key}")
    if not sites:
        raise ParseError("no atom sites found")

    a, b, c = (cell[k] for k in needed[:3])
    alpha, beta, gamma = (np.deg2rad(cell[k]) for k in needed[3:])
    # a degenerate cell (an angle of 0, an infinite length) comes out
    # non-finite without a numpy warning, and Structure rejects it
    with np.errstate(all="ignore"):
        ca, cb, cg = np.cos(alpha), np.cos(beta), np.cos(gamma)
        sg = np.sin(gamma)
        v = np.sqrt(max(0.0, 1.0 - ca * ca - cb * cb - cg * cg
                        + 2.0 * ca * cb * cg))
        lattice = np.array([[a, 0.0, 0.0], [b * cg, b * sg, 0.0],
                            [c * cb, c * (ca - cb * cg) / sg, c * v / sg]])
    return Structure(
        material_id=material_id,
        lattice=lattice,
        species=[s[0] for s in sites],
        frac_coords=[[s[1], s[2], s[3]] for s in sites],
    )


# -- neighbor lists ----------------------------------------------------------


def vector_norms(v):
    """Euclidean norms over a last axis of length 3: sqrt((x*x + y*y) + z*z).

    That is the association ``np.linalg.norm``'s ``add.reduce`` uses over
    three elements, so the result is bitwise equal to
    ``np.linalg.norm(v, axis=-1)``.
    """
    sq = v * v
    return np.sqrt((sq[..., 0] + sq[..., 1]) + sq[..., 2])


# Most (atom i, atom j, image) triples a neighbor search may visit.  Each
# costs about 65 bytes of numpy temporaries, so this bounds a search at
# about 260 MB.  The largest count on the fixture and on 12,288 seeded
# synthetic materials (seeds 1-6) at a 6 A cutoff is 15,680, some 250
# times fewer, and a 380-atom cell whose search spans the 27 nearest
# images still fits.  A cell this limit rejects is thin along some axis,
# so it needs millions of images to cover the cutoff sphere.
MAX_PAIR_IMAGES = 4_000_000


def neighbor_list_pbc(s, cutoff):
    """All periodic pairs (i, j, image_offset, distance) with distance <= cutoff.

    The offset means atom j sits in the cell displaced by ``offset`` lattice
    vectors; (i, j, m) and (j, i, -m) both appear.  Results are sorted by
    (i, j, offset) for a canonical order: the candidate offsets are one
    C-contiguous (M, 3) block in lexicographic order (``np.indices`` of
    the per-axis image counts, shifted by the bound), and ``np.nonzero``
    walks the (i, j, offset) distance block in row-major order, so no sort
    is needed.  Distances come from ``vector_norms``, bitwise equal to
    ``np.linalg.norm`` over the displacement block's last axis.

    A cell so thin that the search would visit more than MAX_PAIR_IMAGES
    (i, j, image) triples is a ValidationError, raised before anything
    that size is allocated.
    """
    if not cutoff > 0:
        raise ContractError(f"cutoff must be positive, got {cutoff}")
    lat = s.lattice
    frac = s.frac_coords
    n = len(frac)

    # Per-axis image bound: |f_k| <= cutoff * ||inv(L)[:, k]|| for any point
    # inside the cutoff sphere, and intra-cell differences add at most 1.
    inv = np.linalg.inv(lat)
    bound = np.floor(cutoff * np.linalg.norm(inv, axis=0) + 1.0)
    images = np.prod(2.0 * bound + 1.0)
    if not n * n * images <= MAX_PAIR_IMAGES:
        raise ValidationError(
            f"cell too thin for cutoff {cutoff}: the neighbor search needs "
            f"{images:.3g} periodic images for {n} atoms, over the limit of "
            f"{MAX_PAIR_IMAGES:,} (atom, atom, image) triples")
    b = bound.astype(np.int64)
    offsets = np.ascontiguousarray(np.indices(2 * b + 1).reshape(3, -1).T) - b

    diff = frac[None, :, :] - frac[:, None, :]  # [i, j] = f_j - f_i
    disp = (diff[:, :, None, :] + offsets[None, None, :, :]) @ lat
    dist = vector_norms(disp)  # (n, n, M)

    within = dist <= cutoff
    # every axis has an odd number of offsets, so (0, 0, 0) is the middle
    within[np.arange(n), np.arange(n), len(offsets) // 2] = False

    ii, jj, mm = np.nonzero(within)
    return ii, jj, offsets[mm], dist[ii, jj, mm]


def build_graph(s, cutoff):
    """Crystal graph with atoms as nodes and within-cutoff pairs as edges."""
    ei, ej, _, d = neighbor_list_pbc(s, cutoff)
    return CrystalGraph(
        node_species=s.atomic_numbers,
        edge_i=ei,
        edge_j=ej,
        edge_dist=d,
    )
