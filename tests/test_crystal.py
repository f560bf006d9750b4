"""Structure parsing, periodic neighbor lists, graph construction."""

import itertools
import json
import warnings

import numpy as np
import pytest

from helpers import random_structure, supercell_neighbor_list
from matterbridge.crystal import (
    Structure,
    build_graph,
    neighbor_list_pbc,
    parse_structure,
    structure_to_json,
    vector_norms,
)
from matterbridge.datasetgen import generate_synthetic_records
from matterbridge.errors import ContractError, ParseError, ValidationError
from matterbridge.fixtures import build_fixture_corpus

CUBIC_PO = """
{"material_id": "po-sc", "lattice": [[3.35, 0, 0], [0, 3.35, 0], [0, 0, 3.35]],
 "species": ["Po"], "frac_coords": [[0, 0, 0]]}
"""

NACL_CIF = """\
data_nacl
_cell_length_a 5.64
_cell_length_b 5.64
_cell_length_c 5.64
_cell_angle_alpha 90
_cell_angle_beta 90
_cell_angle_gamma 90
loop_
_atom_site_type_symbol
_atom_site_fract_x
_atom_site_fract_y
_atom_site_fract_z
Na 0.0 0.0 0.0
Na 0.5 0.5 0.0
Na 0.5 0.0 0.5
Na 0.0 0.5 0.5
Cl 0.5 0.0 0.0
Cl 0.0 0.5 0.0
Cl 0.0 0.0 0.5
Cl 0.5 0.5 0.5
"""


def cubic(a=1.0, species=("Si",), frac=((0, 0, 0),), mid="cube"):
    return Structure(mid, np.eye(3) * a, list(species), np.array(frac, float))


def reference_neighbor_list(s, cutoff):
    """neighbor_list_pbc with the image offsets from itertools.product,
    the zero offset found by search and a final five-key sort."""
    lat, frac, n = s.lattice, s.frac_coords, s.n_atoms
    bound = np.floor(cutoff * np.linalg.norm(np.linalg.inv(lat), axis=0)
                     + 1.0).astype(int)
    axes = [np.arange(-b, b + 1) for b in bound]
    offsets = np.array(list(itertools.product(*axes)), dtype=np.int64)
    diff = frac[None, :, :] - frac[:, None, :]
    dist = np.linalg.norm(
        (diff[:, :, None, :] + offsets[None, None, :, :]) @ lat, axis=-1)
    within = dist <= cutoff
    zero_off = np.flatnonzero((offsets == 0).all(axis=1))[0]
    within[np.arange(n), np.arange(n), zero_off] = False
    ii, jj, mm = np.nonzero(within)
    order = np.lexsort(
        (offsets[mm, 2], offsets[mm, 1], offsets[mm, 0], jj, ii))
    ii, jj, mm = ii[order], jj[order], mm[order]
    return ii, jj, offsets[mm].copy(), dist[ii, jj, mm]


def meshgrid_neighbor_list(s, cutoff):
    """neighbor_list_pbc with its image offsets from np.meshgrid and its
    distances from np.linalg.norm."""
    lat, frac, n = s.lattice, s.frac_coords, s.n_atoms
    bound = np.floor(cutoff * np.linalg.norm(np.linalg.inv(lat), axis=0)
                     + 1.0)
    axes = [np.arange(-b, b + 1) for b in bound.astype(np.int64)]
    offsets = np.stack(np.meshgrid(*axes, indexing="ij"),
                       axis=-1).reshape(-1, 3)
    diff = frac[None, :, :] - frac[:, None, :]
    dist = np.linalg.norm(
        (diff[:, :, None, :] + offsets[None, None, :, :]) @ lat, axis=-1)
    within = dist <= cutoff
    within[np.arange(n), np.arange(n), len(offsets) // 2] = False
    ii, jj, mm = np.nonzero(within)
    return ii, jj, offsets[mm], dist[ii, jj, mm]


def assert_same_outputs(got, want, label):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape, label
        assert g.tobytes() == w.tobytes(), label


class TestParsing:
    def test_json_single_atom(self):
        s = parse_structure(CUBIC_PO.encode(), "structure-json")
        assert s.n_atoms == 1
        assert s.species == ["Po"]
        assert s.volume == pytest.approx(3.35**3)

    def test_cif_rock_salt_matches_hand_json(self):
        s_cif = parse_structure(NACL_CIF, "cif-subset")
        assert s_cif.n_atoms == 8
        assert s_cif.material_id == "nacl"
        hand = Structure(
            "nacl-json",
            np.eye(3) * 5.64,
            ["Na"] * 4 + ["Cl"] * 4,
            np.array(
                [
                    [0, 0, 0], [0.5, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0.5],
                    [0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5], [0.5, 0.5, 0.5],
                ],
                float,
            ),
        )
        np.testing.assert_allclose(s_cif.lattice, hand.lattice, atol=1e-12)
        d_cif = np.sort(neighbor_list_pbc(s_cif, 3.0)[3])
        d_hand = np.sort(neighbor_list_pbc(hand, 3.0)[3])
        np.testing.assert_allclose(d_cif, d_hand, atol=1e-9)

    def test_cif_uncertainty_suffix(self):
        text = NACL_CIF.replace("_cell_length_a 5.64", "_cell_length_a 5.64(2)")
        assert parse_structure(text, "cif-subset").n_atoms == 8

    @pytest.mark.parametrize("angle", ["gamma 0", "beta inf"])
    def test_degenerate_cif_cell_rejected_without_warnings(self, angle):
        name = angle.split()[0]
        text = NACL_CIF.replace(f"_cell_angle_{name} 90",
                                f"_cell_angle_{angle}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                parse_structure(text, "cif-subset")

    def test_zero_lattice_row_rejected(self):
        with pytest.raises(ValidationError):
            Structure("bad", [[1, 0, 0], [0, 0, 0], [0, 0, 1]], ["Si"], [[0, 0, 0]])

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_structure('{"material_id": ', "structure-json")
        assert exc.value.line is not None

    def test_unknown_format_rejected(self):
        with pytest.raises(ContractError):
            parse_structure("{}", "xyz")

    def test_unknown_element_rejected(self):
        with pytest.raises(ValidationError):
            cubic(species=("Xx",))

    def test_frac_coords_wrap(self):
        s = Structure("w", np.eye(3), ["Si"], [[-0.25, 1.25, 0.5]])
        np.testing.assert_allclose(s.frac_coords[0], [0.75, 0.25, 0.5])

    @pytest.mark.parametrize("key,value", [
        ("lattice", [["4", "0", "0"], ["0", "4", "0"], ["0", "0", "4"]]),
        ("lattice", [[4, 0, 0], [0, 4, 0], [0, 0, "4"]]),
        ("lattice", [[True, 0, 0], [0, True, 0], [0, 0, True]]),
        ("frac_coords", [[True, False, 0.5]]),
        ("frac_coords", [["0", "0", "0"]]),
    ])
    def test_json_entries_must_be_numbers(self, key, value):
        # numpy would coerce each of these to floats
        obj = {**json.loads(CUBIC_PO), key: value}
        with pytest.raises(ValidationError, match=key):
            parse_structure(json.dumps(obj), "structure-json")

    def test_json_integers_are_numbers(self):
        s = parse_structure(CUBIC_PO, "structure-json")
        np.testing.assert_array_equal(s.lattice, np.eye(3) * 3.35)
        np.testing.assert_array_equal(s.frac_coords, [[0.0, 0.0, 0.0]])

    def test_json_round_trip(self):
        s = parse_structure(CUBIC_PO, "structure-json")
        s2 = parse_structure(structure_to_json(s), "structure-json")
        assert s2.species == s.species
        np.testing.assert_array_equal(s2.lattice, s.lattice)
        np.testing.assert_array_equal(s2.frac_coords, s.frac_coords)


class TestNeighborList:
    def test_simple_cubic_first_shell(self):
        i, j, off, d = neighbor_list_pbc(cubic(1.0), 1.1)
        assert len(i) == 6
        np.testing.assert_allclose(d, 1.0, atol=1e-12)

    def test_simple_cubic_two_shells(self):
        _, _, _, d = neighbor_list_pbc(cubic(1.0), 1.5)
        assert len(d) == 18
        assert (np.abs(d - 1.0) < 1e-9).sum() == 6
        assert (np.abs(d - np.sqrt(2.0)) < 1e-9).sum() == 12

    def test_below_first_shell_empty(self):
        assert len(neighbor_list_pbc(cubic(1.0), 0.9)[0]) == 0

    def test_nonpositive_cutoff_rejected(self):
        with pytest.raises(ContractError):
            neighbor_list_pbc(cubic(1.0), 0.0)

    def test_matches_supercell_oracle_random(self):
        rng = np.random.default_rng(2024)
        for _ in range(12):
            s = random_structure(rng)
            cutoff = float(rng.uniform(2.0, 5.0))
            i, j, off, d = neighbor_list_pbc(s, cutoff)
            got = list(
                zip(i.tolist(), j.tolist(), map(tuple, off.tolist()), d.tolist())
            )
            assert got == sorted(got)  # already in (i, j, offset) order
            want = supercell_neighbor_list(s, cutoff)
            assert [(a, b, c) for a, b, c, _ in got] == [
                (a, b, c) for a, b, c, _ in want
            ]
            np.testing.assert_allclose(
                [g[3] for g in got], [w[3] for w in want], atol=1e-9
            )

    def test_bitwise_matches_reference_implementation(self):
        rng = np.random.default_rng(99)
        cells = [random_structure(rng) for _ in range(10)]
        cells += [cubic(2.5), parse_structure(NACL_CIF, "cif-subset")]
        for s in cells:
            for cutoff in (2.0, 6.0, 9.5):
                assert_same_outputs(neighbor_list_pbc(s, cutoff),
                                    reference_neighbor_list(s, cutoff),
                                    (s.material_id, cutoff))

    @pytest.mark.parametrize("cutoff", [6.0, 4.0])
    def test_bitwise_matches_meshgrid_norm_on_corpora(self, cutoff):
        records = (generate_synthetic_records(1, 2048)
                   + build_fixture_corpus()[0])
        for r in records:
            assert_same_outputs(neighbor_list_pbc(r.structure, cutoff),
                                meshgrid_neighbor_list(r.structure, cutoff),
                                r.material_id)

    def test_vector_norms_bitwise_linalg_norm(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal((4, 5, 300, 3)) * 10.0 ** rng.integers(
            -200, 200, (4, 5, 300, 1))
        v[0, 0, :3] = [[0.0, -0.0, 0.0], [np.inf, 1.0, 0.0], [1e200, 1e200, 0]]
        with np.errstate(over="ignore"):
            assert (vector_norms(v).tobytes()
                    == np.linalg.norm(v, axis=-1).tobytes())

    def test_thin_cell_rejected_before_allocation(self):
        # the search would need 5 x 5 x 1,200,000,003 images
        s = Structure("thin", np.diag([4.0, 4.0, 1e-8]), ["Si"], [[0, 0, 0]])
        with pytest.raises(ValidationError, match="3e"):
            neighbor_list_pbc(s, 6.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        s = random_structure(rng, n_min=4, n_max=6)
        shift = rng.random(3)
        s2 = Structure(s.material_id, s.lattice, s.species,
                       (s.frac_coords + shift) % 1.0)
        d1 = np.sort(neighbor_list_pbc(s, 3.5)[3])
        d2 = np.sort(neighbor_list_pbc(s2, 3.5)[3])
        np.testing.assert_allclose(d1, d2, atol=1e-9)

    def test_edge_symmetry(self):
        rng = np.random.default_rng(11)
        s = random_structure(rng, n_min=3, n_max=6)
        i, j, off, _ = neighbor_list_pbc(s, 3.0)
        edges = set(zip(i.tolist(), j.tolist(), map(tuple, off.tolist())))
        for a, b, m in edges:
            assert (b, a, (-m[0], -m[1], -m[2])) in edges


class TestGraph:
    def test_single_atom_cube(self):
        g = build_graph(cubic(1.0), 1.1)
        assert len(g.node_species) == 1
        assert g.n_edges == 6

    def test_permutation_relabels_edges(self):
        rng = np.random.default_rng(3)
        s = random_structure(rng, n_min=4, n_max=6)
        perm = rng.permutation(s.n_atoms)
        s2 = Structure(
            s.material_id,
            s.lattice,
            [s.species[p] for p in perm],
            s.frac_coords[perm],
        )
        i1, j1, off1, _ = neighbor_list_pbc(s, 3.0)
        i2, j2, off2, _ = neighbor_list_pbc(s2, 3.0)
        inv = np.argsort(perm)  # old index -> new index
        e1 = set(zip(inv[i1].tolist(), inv[j1].tolist(),
                     map(tuple, off1.tolist())))
        e2 = set(zip(i2.tolist(), j2.tolist(), map(tuple, off2.tolist())))
        assert e1 == e2

    def test_isolated_atom_flagged(self):
        s = Structure(
            "far", np.eye(3) * 20.0, ["Si", "O"],
            [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]],
        )
        g = build_graph(s, 2.0)
        assert len(g.node_species) == 2
        assert g.n_edges == 0

    def test_triclinic_against_oracle(self):
        rng = np.random.default_rng(77)
        s = random_structure(rng, n_min=6, n_max=6)
        g = build_graph(s, 3.2)
        want = supercell_neighbor_list(s, 3.2)
        assert g.n_edges == len(want)
