"""Query-transformer bridge: masks, forward contracts, mask-soundness
gradients, projection."""

import numpy as np
import pytest

from matterbridge.bridge import (
    attention_mask,
    bridge_forward,
    init_bridge,
    lm_prefix,
    match_score,
    project_to_lm,
    text_logits,
)
from matterbridge import bridge
from matterbridge.errors import ContractError, ShapeError
from matterbridge.tensor import Tensor, concat, no_grad

from test_tensor import check_grads


def tiny_bridge(seed=0, **kw):
    defaults = dict(vocab_size=11, d_b=8, n_q=3, L_b=2, n_heads=2,
                    d_enc=5, d_lm=7, max_text=16)
    defaults.update(kw)
    return init_bridge(seed, **defaults)


def rand_atoms(rng, n, d=5):
    return rng.standard_normal((n, d))


class TestMask:
    def test_correlation_block_diagonal(self):
        m = attention_mask("correlation", 2, 2)
        np.testing.assert_array_equal(
            m,
            [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]],
        )

    def test_prediction_causal_text(self):
        m = attention_mask("prediction", 2, 3)
        # query rows: queries only
        np.testing.assert_array_equal(m[:2], [[1, 1, 0, 0, 0]] * 2)
        # text row t: all queries plus text positions <= t
        np.testing.assert_array_equal(
            m[2:],
            [[1, 1, 1, 0, 0], [1, 1, 1, 1, 0], [1, 1, 1, 1, 1]],
        )

    def test_association_and_inference_have_no_mask(self):
        # every position sees every other, so attention runs unmasked
        assert attention_mask("association", 2, 2) is None
        assert attention_mask("inference", 4, 0) is None


class TestForward:
    def test_query_out_shape_any_atom_count(self):
        rng = np.random.default_rng(0)
        bp = tiny_bridge()
        for n in (1, 2, 5, 8, 64):
            out = bridge_forward(rand_atoms(rng, n), None, "inference", bp)
            assert out["query_out"].shape == (3, 8)
            assert out["text_out"] is None

    def test_mode_text_mismatch(self):
        rng = np.random.default_rng(0)
        bp = tiny_bridge()
        atoms = rand_atoms(rng, 2)
        for mode in ("correlation", "prediction", "association"):
            for text in (None, []):
                with pytest.raises(ContractError,
                                   match=f"{mode} mode requires text tokens"):
                    bridge_forward(atoms, text, mode, bp)
        with pytest.raises(ContractError, match="inference mode takes no text"):
            bridge_forward(atoms, [1, 2], "inference", bp)

    def test_unknown_mode(self):
        atoms = rand_atoms(np.random.default_rng(0), 2)
        for text in (None, [1, 2]):
            with pytest.raises(ContractError, match="unknown attention mode"):
                bridge_forward(atoms, text, "blend", tiny_bridge())

    @pytest.mark.parametrize("mode,text,atoms_shape", [
        ("association", [1, 2, 3], (4, 5)),
        ("inference", None, (4, 5)),
        ("inference", None, (2, 4, 5)),
    ])
    def test_unmasked_modes_equal_an_all_true_mask(self, monkeypatch, mode,
                                                   text, atoms_shape):
        rng = np.random.default_rng(9)
        bp = tiny_bridge(L_b=3)
        atoms = Tensor(rng.standard_normal(atoms_shape), True)
        weights = rng.standard_normal((3 + len(text or ()), 8))

        def forward_and_grads():
            for t in (atoms, *bp.params.values()):
                t.grad = None
            out = bridge_forward(atoms, text, mode, bp)
            x = out["query_out"]
            if text:
                x = concat([x, out["text_out"]], axis=0)
            (x * Tensor(weights)).sum().backward()
            return x.data, {k: t.grad for k, t in
                            [("atoms", atoms), *bp.params.items()]
                            if t.grad is not None}

        out, grads = forward_and_grads()
        monkeypatch.setattr(bridge, "attention_mask",
                            lambda mode, n_q, n_text:
                            np.ones((n_q + n_text,) * 2, dtype=bool))
        masked_out, masked_grads = forward_and_grads()
        assert out.tobytes() == masked_out.tobytes()
        assert grads.keys() == masked_grads.keys() and "atoms" in grads
        for k in grads:
            assert grads[k].tobytes() == masked_grads[k].tobytes(), k

    def test_correlation_queries_ignore_text(self):
        rng = np.random.default_rng(1)
        bp = tiny_bridge()
        atoms = rand_atoms(rng, 3)
        a = bridge_forward(atoms, [1, 2, 3], "correlation", bp)
        b = bridge_forward(atoms, [4, 5, 6, 7], "correlation", bp)
        np.testing.assert_array_equal(a["query_out"].data, b["query_out"].data)

    def test_prediction_text_sees_queries(self):
        rng = np.random.default_rng(2)
        bp = tiny_bridge()
        a = bridge_forward(rand_atoms(rng, 3), [1, 2], "prediction", bp)
        b = bridge_forward(rand_atoms(rng, 3), [1, 2], "prediction", bp)
        # different atoms -> different text output (queries leak through)
        assert not np.array_equal(a["text_out"].data, b["text_out"].data)

    def test_prediction_causality_bitwise(self):
        rng = np.random.default_rng(3)
        bp = tiny_bridge()
        atoms = rand_atoms(rng, 4)
        a = bridge_forward(atoms, [1, 2, 3, 4], "prediction", bp)
        b = bridge_forward(atoms, [1, 2, 9, 4], "prediction", bp)
        np.testing.assert_array_equal(
            a["text_out"].data[:2], b["text_out"].data[:2]
        )

    def test_duplicated_atoms_leave_queries_unchanged(self):
        rng = np.random.default_rng(4)
        bp = tiny_bridge()
        atoms = rand_atoms(rng, 2)
        doubled = np.concatenate([atoms, atoms], axis=0)
        a = bridge_forward(atoms, None, "inference", bp)["query_out"].data
        b = bridge_forward(doubled, None, "inference", bp)["query_out"].data
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        bp = tiny_bridge()
        atoms = rand_atoms(rng, 3)
        a = bridge_forward(atoms, [1, 2], "association", bp)
        b = bridge_forward(atoms, [1, 2], "association", bp)
        np.testing.assert_array_equal(a["query_out"].data, b["query_out"].data)
        np.testing.assert_array_equal(a["text_out"].data, b["text_out"].data)

    def test_odd_layers_have_no_cross_weights(self):
        bp = tiny_bridge(L_b=4)
        names = set(bp.params)
        assert "layers.0.cross.wq" in names and "layers.2.cross.wq" in names
        assert not any(n.startswith(("layers.1.cross", "layers.3.cross"))
                       for n in names)

    def test_inference_batch_rows_equal_single_runs(self):
        rng = np.random.default_rng(7)
        bp = tiny_bridge(L_b=4)
        for n in (1, 3):
            stack = rng.standard_normal((5, n, 5))
            with no_grad():
                out = bridge_forward(stack, None, "inference", bp)
                prefix = lm_prefix(stack, bp).data
            assert out["query_out"].shape == (5, 3, 8)
            assert out["text_out"] is None
            for atoms, row, lm_row in zip(stack, out["query_out"].data,
                                          prefix):
                alone = bridge_forward(atoms, None, "inference", bp)
                assert row.tobytes() == alone["query_out"].data.tobytes()
                assert lm_row.tobytes() == project_to_lm(
                    alone["query_out"], bp).data.tobytes()

    def test_text_modes_reject_a_batch_of_atoms(self):
        stack = np.random.default_rng(8).standard_normal((2, 3, 5))
        bp = tiny_bridge()
        for mode in ("correlation", "prediction", "association"):
            with pytest.raises(ShapeError):
                bridge_forward(stack, [1, 2], mode, bp)
        with pytest.raises(ShapeError):
            bridge_forward(stack[None], None, "inference", bp)
        with pytest.raises(ContractError):
            bridge_forward(stack[:0], None, "inference", bp)

    def test_match_score_in_unit_interval(self):
        rng = np.random.default_rng(6)
        bp = tiny_bridge()
        out = bridge_forward(rand_atoms(rng, 3), [1, 2], "association", bp)
        s = match_score(out["query_out"], bp).item()
        assert 0.0 < s < 1.0


class TestProjection:
    def test_zero_weights_give_bias(self):
        bp = tiny_bridge()
        bp.params["proj.w"] = Tensor(np.zeros((8, 7)), True)
        bp.params["proj.b"] = Tensor(np.arange(7.0), True)
        out = project_to_lm(Tensor(np.random.default_rng(0).standard_normal((3, 8))), bp)
        np.testing.assert_array_equal(out.data, np.tile(np.arange(7.0), (3, 1)))

    def test_linearity_with_zero_bias(self):
        rng = np.random.default_rng(1)
        bp = tiny_bridge()
        bp.params["proj.b"] = Tensor(np.zeros(7), True)
        x = rng.standard_normal((3, 8))
        a = project_to_lm(Tensor(2.0 * x), bp).data
        b = 2.0 * project_to_lm(Tensor(x), bp).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_matches_hand_affine(self):
        rng = np.random.default_rng(2)
        bp = tiny_bridge()
        x = rng.standard_normal((4, 8))
        want = x @ bp.params["proj.w"].data + bp.params["proj.b"].data
        np.testing.assert_allclose(
            project_to_lm(Tensor(x), bp).data, want, atol=1e-12
        )


class TestGradients:
    def test_mask_soundness_correlation(self):
        # query outputs must carry exactly zero gradient into the text branch
        rng = np.random.default_rng(7)
        bp = tiny_bridge()
        atoms = rand_atoms(rng, 3)
        for t in bp.params.values():
            t.grad = None
        out = bridge_forward(atoms, [1, 2, 3], "correlation", bp)
        out["query_out"].square().sum().backward()
        assert np.all(bp.params["tok_embed"].grad == 0.0)
        assert np.all(bp.params["pos_embed"].grad == 0.0)
        assert np.all(bp.params["seg_embed"].grad[1] == 0.0)
        assert np.any(bp.params["queries"].grad != 0.0)

    def test_mask_soundness_prediction_causal(self):
        # earlier text rows carry zero gradient from later-token targets only;
        # here: loss on text row 0 must not touch pos_embed rows >= 1
        rng = np.random.default_rng(8)
        bp = tiny_bridge()
        for t in bp.params.values():
            t.grad = None
        out = bridge_forward(rand_atoms(rng, 2), [1, 2, 3], "prediction", bp)
        out["text_out"][0:1].square().sum().backward()
        assert np.all(bp.params["pos_embed"].grad[1:] == 0.0)
        assert np.any(bp.params["pos_embed"].grad[0] != 0.0)

    def test_finite_difference_through_stack(self):
        rng = np.random.default_rng(9)
        bp = tiny_bridge()
        atoms = rand_atoms(rng, 3)
        ids = [1, 4, 2]

        def build():
            out = bridge_forward(atoms, ids, "association", bp)
            ql = project_to_lm(out["query_out"], bp).square().sum()
            tl = text_logits(out["text_out"], bp).square().sum() * 0.1
            return ql + tl + match_score(out["query_out"], bp)

        check_grads(
            build,
            [
                bp.params["queries"],
                bp.params["layers.0.cross.wk"],
                bp.params["layers.0.self.wq"],
                bp.params["layers.1.ffn.w1"],
                bp.params["proj.w"],
                bp.params["tok_embed"],
                bp.params["match.w"],
                bp.params["ln_f.gamma"],
            ],
        )

    def test_text_branch_logits_shape(self):
        rng = np.random.default_rng(10)
        bp = tiny_bridge()
        out = bridge_forward(rand_atoms(rng, 2), [1, 2, 3, 4], "prediction", bp)
        assert text_logits(out["text_out"], bp).shape == (4, 11)
