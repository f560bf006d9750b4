"""Embedding store, top-k retrieval, and vote/average aggregation."""

import contextlib
import io
import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matterbridge import rag
from matterbridge.bridge import bridge_forward, project_to_lm
from matterbridge.cli import run_cli
from matterbridge.config import Config
from matterbridge.datasetgen import generate_synthetic_records
from matterbridge.errors import ContractError, ValidationError
from matterbridge.rag import (EmbeddingStore, embed_material,
                              material_prefixes, rag_aggregate,
                              retrieve_topk)
from matterbridge import trainer as tr


def toy_store():
    return EmbeddingStore(["a", "b", "c"],
                          np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))


class TestStore:
    def test_add_validates_stride_and_duplicates(self):
        assert EmbeddingStore(["a"], np.zeros((1, 2))).stride == 2
        with pytest.raises(ValidationError, match="stride"):
            EmbeddingStore(["a"], np.zeros((1, 0)))
        with pytest.raises(ValidationError, match="stride"):
            EmbeddingStore(["a", "b"], np.zeros(2))
        with pytest.raises(ValidationError, match="2 material ids for 3"):
            EmbeddingStore(["a", "b"], np.zeros((3, 2)))
        with pytest.raises(ValidationError, match="duplicate material id 'a'"):
            EmbeddingStore(["a", "b", "a"], np.zeros((3, 2)))

    def test_nonfinite_vector_rejected(self):
        with pytest.raises(ValidationError, match="embedding for y is not"):
            EmbeddingStore(["x", "y"], np.array([[1.0, 2.0], [1.0, np.nan]]))
        with pytest.raises(ValidationError, match="must be a string"):
            EmbeddingStore(["x", 5], np.zeros((2, 2)))
        with pytest.raises(ValidationError, match="must be a list"):
            EmbeddingStore("xy", np.zeros((2, 2)))

    def test_save_load_round_trip(self, tmp_path):
        store = toy_store()
        store.save(tmp_path)
        again = EmbeddingStore.load(tmp_path)
        assert len(again) == 3
        assert again.ids == ["a", "b", "c"]
        np.testing.assert_array_equal(again.matrix, store.matrix)
        meta = json.loads((tmp_path / "store.json").read_text())
        assert meta == {"count": 3, "ids": ["a", "b", "c"], "stride": 2}

    def test_labels_key_is_ignored(self, tmp_path):
        # stores written before the format dropped per-material labels
        toy_store().save(tmp_path)
        path = tmp_path / "store.json"
        meta = json.loads(path.read_text())
        meta["labels"] = [{"is_metal": "yes"}, {}, {}]
        path.write_text(json.dumps(meta))
        assert EmbeddingStore.load(tmp_path).ids == ["a", "b", "c"]

    def test_load_rejects_nonfinite_vector(self, tmp_path):
        toy_store().save(tmp_path)
        bin_path = tmp_path / "store.bin"
        raw = bytearray(bin_path.read_bytes())
        raw[16:24] = np.array([np.inf]).tobytes()  # first entry of row b
        bin_path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="embedding for b"):
            EmbeddingStore.load(tmp_path)

    def test_bin_length_check(self, tmp_path):
        store = toy_store()
        store.save(tmp_path)
        bin_path = tmp_path / "store.bin"
        bin_path.write_bytes(bin_path.read_bytes()[:-8])
        with pytest.raises(ValidationError, match="bytes"):
            EmbeddingStore.load(tmp_path)

    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(1, 3), stride=st.integers(1, 3),
           data=st.data())
    def test_any_wrong_bin_length_is_refused(self, count, stride, data):
        # truncated, extended, or not a whole number of float64s
        expected = stride * count * 8
        length = data.draw(st.integers(0, expected + 24).filter(
            lambda n: n != expected))
        with tempfile.TemporaryDirectory() as tmp:
            EmbeddingStore([f"m{i}" for i in range(count)],
                           np.ones((count, stride))).save(tmp)
            bin_path = Path(tmp) / "store.bin"
            raw = bin_path.read_bytes()
            bin_path.write_bytes((raw + bytes(range(24)))[:length])
            with pytest.raises(ValidationError,
                               match=f"holds {length} bytes, expected "
                                     f"{expected} "):
                EmbeddingStore.load(tmp)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = run_cli(["retrieve", "--store", tmp, "--query-id", "m0",
                              "--k", "1", "--include-self"])
            assert rc == 1
            assert err.getvalue().startswith("error: ")

    @pytest.mark.parametrize("count,stride", [(1, 1), (3, 2)])
    def test_an_empty_bin_is_refused_by_its_length(self, tmp_path, count,
                                                  stride):
        # an empty file cannot be mapped; the length check still decides
        EmbeddingStore([f"m{i}" for i in range(count)],
                       np.ones((count, stride))).save(tmp_path)
        (tmp_path / "store.bin").write_bytes(b"")
        expected = count * stride * 8
        with pytest.raises(ValidationError,
                           match=f"holds 0 bytes, expected {expected} "):
            EmbeddingStore.load(tmp_path)

    def test_empty_store_round_trip(self, tmp_path):
        EmbeddingStore([], np.zeros((0, 4))).save(tmp_path)
        assert (tmp_path / "store.bin").read_bytes() == b""
        again = EmbeddingStore.load(tmp_path)
        assert (len(again), again.stride) == (0, 4)
        assert again.matrix.shape == (0, 4)
        with pytest.raises(ValidationError, match="exceeds the 0"):
            retrieve_topk(again, np.zeros(4), k=1)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = run_cli(["retrieve", "--store", str(tmp_path),
                          "--query-id", "m0", "--k", "1"])
        assert rc == 1
        assert err.getvalue() == "error: query id 'm0' not in store\n"

    def test_loaded_matrix_is_read_only(self, tmp_path):
        toy_store().save(tmp_path)
        matrix = EmbeddingStore.load(tmp_path).matrix
        assert matrix.dtype == np.float64
        assert not matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0

    def test_save_writes_the_little_endian_row_major_matrix(self, tmp_path):
        rng = np.random.default_rng(5)
        fortran = np.asfortranarray(rng.normal(size=(5, 3)))
        EmbeddingStore([f"m{i}" for i in range(5)], fortran).save(tmp_path)
        raw = (tmp_path / "store.bin").read_bytes()
        assert raw == np.ascontiguousarray(fortran, dtype="<f8").tobytes()
        # a loaded, mapped store saves the same bytes again
        EmbeddingStore.load(tmp_path).save(tmp_path / "again")
        assert (tmp_path / "again" / "store.bin").read_bytes() == raw

    def test_row_of(self):
        store = toy_store()
        assert [store.row_of(m) for m in ("a", "b", "c")] == [0, 1, 2]
        assert store.row_of("d") is None
        assert store.row_of(None) is None

    def test_missing_files(self, tmp_path):
        with pytest.raises(ValidationError):
            EmbeddingStore.load(tmp_path)


class TestRetrieve:
    def test_hand_distances(self):
        # distances to query [0.9, 0]: a 0.9, b 0.1, c 2.1
        got = retrieve_topk(toy_store(), np.array([0.9, 0.0]), k=2)
        assert [r.material_id for r in got] == ["b", "a"]

    def test_full_store_sorted(self):
        got = retrieve_topk(toy_store(), np.array([0.9, 0.0]), k=3)
        assert [r.material_id for r in got] == ["b", "a", "c"]

    def test_tie_prefers_insertion_order(self):
        store = EmbeddingStore(["first", "second"], np.array([[1.0], [-1.0]]))
        got = retrieve_topk(store, np.array([0.0]), k=1)
        assert got[0].material_id == "first"

    def test_exclude_self(self):
        got = retrieve_topk(toy_store(), np.array([1.0, 0.0]), k=2,
                            exclude_id="b")
        assert [r.material_id for r in got] == ["a", "c"]

    def test_k_bounds(self):
        store = toy_store()
        with pytest.raises(ValidationError):
            retrieve_topk(store, np.zeros(2), k=4)
        with pytest.raises(ValidationError):
            retrieve_topk(store, np.zeros(2), k=3, exclude_id="a")
        with pytest.raises(ValidationError):
            retrieve_topk(store, np.zeros(2), k=0)

    def test_query_length_checked(self):
        with pytest.raises(ValidationError):
            retrieve_topk(toy_store(), np.zeros(3), k=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_query_rejected(self, bad):
        # a NaN distance sorts nowhere, so the first k rows would come back
        with pytest.raises(ValidationError, match="not finite"):
            retrieve_topk(toy_store(), np.array([0.5, bad]), k=2)

    @staticmethod
    def one_pass(matrix, query, skip=None):
        # the distances and order of the unblocked scan
        dists = np.sqrt(((matrix - query) ** 2).sum(axis=1))
        rows = np.array([i for i in range(len(matrix)) if i != skip])
        order = rows[np.argsort(dists[rows], kind="stable")]
        return [(f"m{i}", float(dists[i])) for i in order]

    @pytest.mark.parametrize("stride", [1, 7, 768])
    @pytest.mark.parametrize("count", [1, rag.DISTANCE_ROWS - 1,
                                       rag.DISTANCE_ROWS,
                                       rag.DISTANCE_ROWS + 1, 2048])
    def test_blocks_are_bitwise_one_pass(self, count, stride):
        rng = np.random.default_rng(count * 1000 + stride)
        matrix = rng.normal(size=(count, stride))
        store = EmbeddingStore([f"m{i}" for i in range(count)], matrix)
        query = rng.normal(size=stride)
        got = retrieve_topk(store, query, k=count)
        assert [tuple(h) for h in got] == self.one_pass(matrix, query)

    @pytest.mark.parametrize("skip", [0, rag.DISTANCE_ROWS - 1,
                                      rag.DISTANCE_ROWS,
                                      2 * rag.DISTANCE_ROWS - 1,
                                      2 * rag.DISTANCE_ROWS + 2])
    def test_exclude_at_block_edges(self, skip):
        count = 2 * rag.DISTANCE_ROWS + 3
        rng = np.random.default_rng(skip)
        matrix = rng.normal(size=(count, 7))
        store = EmbeddingStore([f"m{i}" for i in range(count)], matrix)
        query = matrix[skip] + 1e-3
        got = retrieve_topk(store, query, k=count - 1,
                            exclude_id=f"m{skip}")
        assert [tuple(h) for h in got] == self.one_pass(matrix, query, skip)

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(12)
        vecs = rng.normal(size=(50, 4))
        vecs[7] = vecs[3]  # an exact tie keeps insertion order
        store = EmbeddingStore([f"m{i}" for i in range(50)], vecs)
        for trial in range(10):
            q = vecs[3] + 0.1 * rng.normal(size=4)
            skip = f"m{trial}" if trial % 2 else None
            got = retrieve_topk(store, q, k=5, exclude_id=skip)
            # the per-row loop retrieval used before it was vectorised
            rows = [(f"m{i}", v) for i, v in enumerate(vecs)
                    if f"m{i}" != skip]
            dists = np.array([np.linalg.norm(v - q) for _, v in rows])
            order = np.argsort(dists, kind="stable")[:5]
            assert [r.material_id for r in got] == [rows[i][0] for i in order]
            np.testing.assert_allclose([r.distance for r in got],
                                       dists[order], rtol=0, atol=1e-12)


class TestAggregate:
    def test_majority(self):
        assert rag_aggregate("metal", ["metal", "non-metal"],
                             "classification") == "metal"

    def test_mean(self):
        assert rag_aggregate(0.1, [0.2, 0.3], "numeric") \
            == pytest.approx(0.2, rel=1e-12)

    def test_two_way_tie_favors_self(self):
        assert rag_aggregate("A", ["B"], "classification") == "A"
        assert rag_aggregate("B", ["A"], "classification") == "B"

    def test_three_way_tie_favors_self(self):
        assert rag_aggregate("C", ["A", "B"], "classification") == "C"

    def test_majority_can_override_self(self):
        assert rag_aggregate("metal", ["non-metal", "non-metal"],
                             "classification") == "non-metal"

    def test_empty_retrieved_rejected(self):
        with pytest.raises(ValidationError):
            rag_aggregate("A", [], "classification")

    def test_unknown_kind(self):
        with pytest.raises(ContractError):
            rag_aggregate("A", ["B"], "ranking")


class TestEmbedMaterial:
    def test_shape_and_determinism(self):
        cfg = Config(d_enc=16, L_enc=1, d_b=16, n_q=4, L_b=2, n_heads=2,
                     d_lm=32, L_lm=1, lm_heads=2).validate()
        models = tr.build_models(cfg, seed=3)
        rec = generate_synthetic_records(seed=5, n=2)[0]
        v1 = embed_material(rec.structure, models)
        v2 = embed_material(rec.structure, models)
        assert v1.shape == (cfg.n_q * cfg.d_lm,)
        np.testing.assert_array_equal(v1, v2)

    def test_different_compositions_differ(self):
        cfg = Config(d_enc=16, L_enc=1, d_b=16, n_q=4, L_b=2, n_heads=2,
                     d_lm=32, L_lm=1, lm_heads=2).validate()
        models = tr.build_models(cfg, seed=3)
        recs = generate_synthetic_records(seed=5, n=6)
        pairs = [(a, b) for i, a in enumerate(recs) for b in recs[i + 1:]
                 if a.reduced_formula != b.reduced_formula]
        a, b = pairs[0]
        va = embed_material(a.structure, models)
        vb = embed_material(b.structure, models)
        assert np.linalg.norm(va - vb) > 0.0


def small_models(seed=3):
    cfg = Config(d_enc=16, L_enc=1, d_b=16, n_q=4, L_b=2, n_heads=2,
                 d_lm=32, L_lm=1, lm_heads=2).validate()
    return tr.build_models(cfg, seed=seed)


def prefix_alone(structure, models):
    """One structure through the 2-D bridge path, as before batching."""
    out = bridge_forward(tr.encode_structure(structure, models), None,
                         "inference", models.bridge)
    return project_to_lm(out["query_out"], models.bridge).data


class TestMaterialPrefixes:
    @pytest.mark.parametrize("cap", [1, 3, rag.PREFIX_ROWS])
    def test_rows_equal_the_structure_alone(self, cap, monkeypatch):
        monkeypatch.setattr(rag, "PREFIX_ROWS", cap)
        models = small_models()
        structures = [r.structure for r in generate_synthetic_records(2, 150)]
        # duplicates: the same objects again, shuffled among the first
        structures = structures + structures[::2]
        order = np.random.default_rng(0).permutation(len(structures))
        structures = [structures[i] for i in order]
        counts = Counter(s.n_atoms for s in structures)
        assert counts[1] > 0 and len(counts) >= 5
        assert max(counts.values()) > rag.PREFIX_ROWS
        got = material_prefixes(structures, models)
        assert got.shape == (len(structures), 4, 32)
        for row, structure in zip(got, structures, strict=True):
            assert row.tobytes() == prefix_alone(structure, models).tobytes()

    def test_empty_list_and_single_structure(self):
        models = small_models()
        assert material_prefixes([], models).shape == (0, 4, 32)
        structure = generate_synthetic_records(5, 1)[0].structure
        np.testing.assert_array_equal(
            embed_material(structure, models),
            prefix_alone(structure, models).reshape(-1))


class TestModelFingerprint:
    def test_covers_encoder_and_bridge_not_lm(self):
        models = small_models()
        fp = rag.model_fingerprint(models)
        assert len(fp) == 64 and fp == rag.model_fingerprint(small_models())
        assert rag.model_fingerprint(small_models(seed=4)) != fp
        models.lm.params["ln_f.gamma"].data[0] += 1.0
        assert rag.model_fingerprint(models) == fp
        models.bridge.params["proj.b"].data[0] += 1e-300
        assert rag.model_fingerprint(models) != fp

    def test_covers_the_head_count(self):
        # the arrays are drawn alike, the prefixes differ
        fps = [rag.model_fingerprint(tr.build_models(Config(
            d_enc=8, L_enc=1, d_b=8, n_q=2, L_b=1, n_heads=heads, d_lm=8,
            L_lm=1, lm_heads=1), seed=3)) for heads in (1, 2)]
        assert fps[0] != fps[1]

    def test_store_round_trip(self, tmp_path):
        EmbeddingStore(["a"], np.zeros((1, 2)), "f" * 64).save(tmp_path)
        meta = json.loads((tmp_path / "store.json").read_text())
        assert meta == {"count": 1, "fingerprint": "f" * 64, "ids": ["a"],
                        "stride": 2}
        assert EmbeddingStore.load(tmp_path).fingerprint == "f" * 64
        with pytest.raises(ValidationError, match="must be a string"):
            EmbeddingStore(["a"], np.zeros((1, 2)), 5)
