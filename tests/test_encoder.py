"""Frozen encoder: determinism, equivariance, geometric invariance."""

from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from helpers import random_structure
from matterbridge.config import Config, load_config
from matterbridge.crystal import Structure, build_graph
from matterbridge.encoder import (N_ELEMENTS, N_RBF, NEIGHBOR_DECAY,
                                  _EdgeOrder, _ordered_segment_sums,
                                  encode_atoms, init_encoder)
from matterbridge.fixtures import build_fixture_corpus
from matterbridge.tensor import Tensor
from matterbridge.trainer import build_models

OVERFIT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "overfit.json"


def encode_structure(s, params, cutoff=3.0):
    return encode_atoms(build_graph(s, cutoff), params)


def count_lexsorts(monkeypatch, fn, *args):
    """fn(*args) and the number of np.lexsort calls it made."""
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda k: calls.append(k) or lexsort(k))
    out = fn(*args)
    monkeypatch.undo()
    return out, len(calls)


def ordered_sums(rows, seg, keys, n_seg, ties=()):
    """_ordered_segment_sums over the edge order of ``keys``, given as
    (neighbor species, distance) in np.lexsort convention."""
    species, dist = keys
    return _ordered_segment_sums(rows, _EdgeOrder(seg, dist, species, n_seg),
                                 ties)


def reference_segment_sums(rows, seg, keys, n_seg):
    """Per-segment sums by one lexsort on every key (the last one
    primary), then one Python-level add per padded neighbor slot."""
    order = np.lexsort(tuple(keys) + (seg,))
    seg_sorted = seg[order]
    counts = np.bincount(seg, minlength=n_seg)
    starts = np.cumsum(counts) - counts
    slot = np.arange(len(seg)) - starts[seg_sorted]
    padded = np.zeros((n_seg, counts.max(), rows.shape[1]))
    padded[seg_sorted, slot] = rows[order]
    acc = np.zeros((n_seg, rows.shape[1]))
    for k in range(padded.shape[1]):
        acc += padded[:, k]
    return acc


def reference_encode_atoms(graph, params):
    """encode_atoms with every per-atom sum taken by reference_segment_sums,
    its messages ordered by one sort on atom, distance, neighbor species
    and all message components."""
    w = {k: t.data for k, t in params.params.items()}
    z = np.asarray(graph.node_species, dtype=np.int64)
    h = w["atom_embed"][z - 1].copy()
    ei, ej, dist = graph.edge_i, graph.edge_j, graph.edge_dist
    edge_feat = np.exp(-((dist[:, None] - w["rbf_centers"][None, :]) ** 2)
                       / (2.0 * params.rbf_width ** 2))
    n = len(z)
    nearest = np.full(n, np.inf)
    np.minimum.at(nearest, ei, dist)
    weight = np.exp(-(dist - nearest[ei]) / NEIGHBOR_DECAY)
    total = reference_segment_sums(weight[:, None], ei, (dist,), n)[:, 0]
    total[total == 0.0] = 1.0
    for l in range(params.cfg.L_enc):
        layer = {k: w[f"layers.{l}.{k}"] for k in ("w_msg", "w_edge",
                                                    "w_update")}
        msg = np.tanh(h[ej] @ layer["w_msg"] + edge_feat @ layer["w_edge"])
        keys = tuple(msg[:, c] for c in range(msg.shape[1] - 1, -1, -1))
        agg = reference_segment_sums(msg * weight[:, None], ei,
                                     keys + (z[ej], dist), n)
        h = np.tanh(h @ layer["w_update"] + agg / total[:, None])
    return h


def rock_salt(a=5.64):
    return Structure("nacl", np.eye(3) * a, ["Na"] * 4 + ["Cl"] * 4,
                     [[0, 0, 0], [0.5, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0.5],
                      [0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5], [0.5, 0.5, 0.5]])


class TestInit:
    def test_same_seed_bit_identical(self):
        a, b = (init_encoder(9, Config()).params for _ in range(2))
        assert list(a) == list(b)
        for k in a:
            np.testing.assert_array_equal(a[k].data, b[k].data)

    def test_different_seeds_differ(self):
        a, b = (init_encoder(seed, Config()).params["atom_embed"].data
                for seed in (1, 2))
        assert not np.array_equal(a, b)

    def test_parameter_table_names_and_shapes(self):
        p = init_encoder(0, Config(d_enc=8, L_enc=2)).params
        assert {k: t.shape for k, t in p.items()} == {
            "rbf_centers": (N_RBF,),
            "layers.0.w_msg": (8, 8), "layers.0.w_edge": (N_RBF, 8),
            "layers.0.w_update": (8, 8),
            "layers.1.w_msg": (8, 8), "layers.1.w_edge": (N_RBF, 8),
            "layers.1.w_update": (8, 8),
            "atom_embed": (N_ELEMENTS, 8),
        }

    def test_no_gradient_buffers(self):
        for t in init_encoder(0, Config()).params.values():
            assert isinstance(t, Tensor)
            assert not t.requires_grad and t.grad is None


class TestEncode:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        p = init_encoder(4, Config(d_enc=16))
        for _ in range(4):
            s = random_structure(rng)
            out = encode_structure(s, p)
            assert out.shape == (s.n_atoms, 16)
            assert np.isfinite(out).all()

    def test_permutation_equivariance_bitwise(self):
        rng = np.random.default_rng(42)
        p = init_encoder(4, Config())
        for _ in range(5):
            s = random_structure(rng, n_min=4, n_max=8)
            perm = rng.permutation(s.n_atoms)
            s2 = Structure(
                s.material_id, s.lattice,
                [s.species[k] for k in perm], s.frac_coords[perm],
            )
            h1 = encode_structure(s, p)
            h2 = encode_structure(s2, p)
            np.testing.assert_array_equal(h1[perm], h2)

    def test_lattice_translation_identity(self):
        rng = np.random.default_rng(8)
        p = init_encoder(4, Config())
        s = random_structure(rng, n_min=3, n_max=5)
        s2 = Structure(s.material_id, s.lattice, s.species,
                       (s.frac_coords + np.array([1.0, 2.0, -1.0])) % 1.0)
        np.testing.assert_allclose(
            encode_structure(s, p), encode_structure(s2, p), atol=1e-10
        )

    def test_rigid_rotation_invariance(self):
        rng = np.random.default_rng(15)
        p = init_encoder(4, Config())
        s = random_structure(rng, n_min=3, n_max=6)
        # random special-orthogonal matrix via QR
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        s2 = Structure(s.material_id, s.lattice @ q, s.species, s.frac_coords)
        np.testing.assert_allclose(
            encode_structure(s, p), encode_structure(s2, p), atol=1e-9
        )

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(21)
        p = init_encoder(4, Config())
        s = random_structure(rng)
        np.testing.assert_array_equal(
            encode_structure(s, p), encode_structure(s, p)
        )

    def test_isolated_atoms_still_encoded(self):
        s = Structure("far", np.eye(3) * 30.0, ["Si", "Fe"],
                      [[0, 0, 0], [0.5, 0.5, 0.5]])
        out = encode_structure(s, init_encoder(4, Config()), cutoff=2.0)
        assert out.shape == (2, 32)
        assert np.isfinite(out).all()
        # with no edges the rows depend on species alone
        assert not np.array_equal(out[0], out[1])


class TestReferenceOrder:
    """encode_atoms is bitwise the reference: one sort on every key and
    one add at a time, on inputs where many edges tie on (distance,
    neighbor species) and the message components decide the order."""

    ENCODERS = (init_encoder(4, Config()),
                init_encoder(7, Config(d_enc=16, L_enc=1)),
                init_encoder(9, Config(d_enc=8, L_enc=3)))

    def assert_bitwise(self, structure, cutoff=6.0):
        graph = build_graph(structure, cutoff)
        for p in self.ENCODERS:
            got = encode_atoms(graph, p)
            want = reference_encode_atoms(graph, p)
            assert got.tobytes() == want.tobytes(), structure.material_id

    def test_random_structures(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            self.assert_bitwise(random_structure(rng),
                                cutoff=float(rng.choice([3.0, 6.0])))

    def test_tie_heavy_cells(self):
        self.assert_bitwise(rock_salt())
        self.assert_bitwise(Structure("sc", np.eye(3) * 2.5, ["Po"],
                                      [[0, 0, 0]]))
        self.assert_bitwise(Structure("bcc", np.eye(3) * 2.87, ["Fe", "Fe"],
                                      [[0, 0, 0], [0.5, 0.5, 0.5]]))
        records, _ = build_fixture_corpus()
        single = [r.structure for r in records
                  if len(set(r.structure.species)) == 1]
        assert {sp for s in single for sp in s.species} >= {"O", "N", "C",
                                                            "Ga"}
        for s in single:
            self.assert_bitwise(s)

    def test_isolated_atom(self):
        self.assert_bitwise(Structure("far", np.eye(3) * 30.0, ["Si", "Fe"],
                                      [[0, 0, 0], [0.5, 0.5, 0.5]]))
        # one isolated atom beside a bonded pair
        self.assert_bitwise(Structure("one-far", np.eye(3) * 20.0,
                                      ["Si", "Fe", "O"],
                                      [[0, 0, 0], [0.1, 0, 0],
                                       [0.5, 0.5, 0.5]]), cutoff=3.0)

    def test_ties_on_every_key_keep_arrival_order(self):
        rng = np.random.default_rng(5)
        n_seg, n_rows = 6, 400
        seg = rng.integers(0, n_seg, n_rows)
        keys = tuple(rng.integers(0, 3, n_rows).astype(float)
                     for _ in range(2))
        ties = tuple(rng.integers(0, 2, n_rows).astype(float)
                     for _ in range(3))
        rows = rng.standard_normal((n_rows, 4))
        got = ordered_sums(rows, seg, keys, n_seg, ties)
        want = reference_segment_sums(rows, seg, ties + keys, n_seg)
        assert got.tobytes() == want.tobytes()

    def test_rock_salt_sorts_its_edges_once(self, monkeypatch):
        # every tied run of rock salt holds equal messages, so neither
        # layer re-sorts, and the weights and nearest distances read the
        # one edge order
        graph = build_graph(rock_salt(), 6.0)
        p = init_encoder(4, Config(L_enc=2))
        got, sorts = count_lexsorts(monkeypatch, encode_atoms, graph, p)
        assert sorts == 1
        assert got.tobytes() == reference_encode_atoms(graph, p).tobytes()


class TestTieResort:
    """The edge order takes one sort, and _ordered_segment_sums re-sorts
    the runs that tie on atom, distance and neighbor species only when
    some run holds unequal rows, and is bitwise the one-sort reference
    either way."""

    N_SEG, N_KEYS = 4, 5

    def tied_rows(self):
        """Rows that are a function of their (segment, key), so every tied
        run is equal, with tie keys that order each run differently from
        its arrival order."""
        rng = np.random.default_rng(12)
        seg = rng.integers(0, self.N_SEG, 300)
        key = rng.integers(0, self.N_KEYS, 300)
        rows = rng.standard_normal((self.N_SEG, self.N_KEYS, 6))[seg, key]
        ties = tuple(rng.standard_normal(300) for _ in range(3))
        return rows, seg, (np.zeros(300), key.astype(float)), ties

    def assert_reference(self, monkeypatch, rows, seg, keys, ties, sorts):
        got, n = count_lexsorts(monkeypatch, ordered_sums, rows, seg, keys,
                                self.N_SEG, ties)
        assert n == sorts
        want = reference_segment_sums(rows, seg, ties + keys, self.N_SEG)
        assert got.tobytes() == want.tobytes()
        return got

    def test_equal_tied_runs_skip_the_resort(self, monkeypatch):
        self.assert_reference(monkeypatch, *self.tied_rows(), sorts=1)

    @pytest.mark.parametrize("change", [1e-3, np.nan])
    def test_one_unequal_run_takes_the_resort(self, monkeypatch, change):
        rows, seg, keys, ties = self.tied_rows()
        run = np.flatnonzero((seg == 2) & (keys[1] == 3.0))
        assert len(run) > 2
        rows[run[1], 0] += change
        self.assert_reference(monkeypatch, rows, seg, keys, ties, sorts=2)

    def test_signed_zeros_in_a_tied_run(self, monkeypatch):
        rows, seg, keys, ties = self.tied_rows()
        run = np.flatnonzero(seg == 0)
        keys[1][run] = 0.0
        rows[run] = 2.5
        rows[run[::2], 0] = -0.0
        rows[run[1::2], 0] = 0.0
        got = self.assert_reference(monkeypatch, rows, seg, keys, ties,
                                    sorts=1)
        assert got[0, 0] == 0.0 and not np.signbit(got[0, 0])


class TestFixtureSeparation:
    """The overfit config's encoder keeps the fixture's atoms and materials
    apart: a saturated feature map gives different atoms one row and
    different materials one pooled vector, and nothing downstream can
    tell them apart again."""

    @pytest.fixture(scope="class")
    def encoded(self):
        cfg = load_config(OVERFIT_CONFIG)
        params = build_models(cfg).encoder
        records, _ = build_fixture_corpus()
        return [(rec, encode_atoms(build_graph(rec.structure, cfg.cutoff),
                                   params))
                for rec in records]

    def test_species_get_distinct_rows(self, encoded):
        for rec, h in encoded:
            species = rec.structure.species
            for i, j in combinations(range(len(species)), 2):
                if species[i] != species[j]:
                    gap = np.max(np.abs(h[i] - h[j]))
                    assert gap > 1e-3, (
                        f"{rec.material_id}: {species[i]} atom {i} and "
                        f"{species[j]} atom {j} differ by only {gap:.1e}")

    def test_mean_pooled_materials_distinct(self, encoded):
        pooled = np.array([h.mean(axis=0) for _, h in encoded])
        assert len(pooled) == 32
        gaps = np.linalg.norm(pooled[:, None] - pooled[None], axis=-1)
        i, j = np.triu_indices(len(pooled), 1)
        k = int(np.argmin(gaps[i, j]))
        assert gaps[i[k], j[k]] > 0.02, (
            f"{encoded[i[k]][0].material_id} and {encoded[j[k]][0].material_id}"
            f" pool to vectors {gaps[i[k], j[k]]:.1e} apart")

    def test_features_not_saturated(self, encoded):
        feats = np.concatenate([h.ravel() for _, h in encoded])
        assert np.mean(np.abs(feats) > 0.99) < 0.01
