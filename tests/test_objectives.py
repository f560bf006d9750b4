"""Loss functions: frozen hand-derived values, invariants, gradient checks."""

import numpy as np
import pytest

from matterbridge import trainer as tr
from matterbridge.config import Config
from matterbridge.datasetgen import generate_synthetic_records
from matterbridge.errors import ContractError, ValidationError
from matterbridge.objectives import (
    association_loss,
    contrastive_loss,
    finetune_loss,
    hard_negative_sample,
    lm_token_loss,
    sim_matrix,
)
from matterbridge.tensor import Tensor

from test_tensor import check_grads

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def sim(q, t):
    """One graph against one text, through the all-pairs matrix."""
    return sim_matrix([q], np.asarray(t)[None])


class TestSim:
    def test_aligned(self):
        assert sim(np.stack([E1, E2]), E1).item() == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert sim(np.stack([E1, E2]), E3).item() == pytest.approx(0.0, abs=1e-12)

    def test_oblique_hand_value(self):
        q = np.stack([E1, (E1 + E2) / np.sqrt(2.0)])
        got = sim(q, E2).item()
        assert got == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            sim(np.stack([E1, np.zeros(3)]), E1)
        with pytest.raises(ValidationError):
            sim(np.stack([E1]), np.zeros(3))

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((4, 6))
        t = rng.standard_normal(6)
        a = sim(q, t).item()
        b = sim(3.7 * q, 0.2 * t).item()
        assert a == pytest.approx(b, abs=1e-12)


class TestContrastive:
    def test_single_pair_is_zero(self):
        q = [np.stack([E1, E2])]
        t = np.stack([E1])
        got = contrastive_loss(sim_matrix(q, t), tau=1.0).item()
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_identity_sim_n2_hand_value(self):
        # sim matrix [[1,0],[0,1]] at tau=1 -> 2 log(1 + e^-1)
        qs = [np.stack([E1]), np.stack([E2])]
        ts = np.stack([E1, E2])
        want = 2.0 * np.log(1.0 + np.exp(-1.0))
        assert contrastive_loss(sim_matrix(qs, ts), tau=1.0).item() == pytest.approx(
            want, abs=1e-12
        )

    def test_uniform_batch_4ln4(self):
        qs = [np.stack([E1])] * 4
        ts = np.stack([E1] * 4)
        got = contrastive_loss(sim_matrix(qs, ts), tau=0.07).item()
        assert got == pytest.approx(4.0 * np.log(4.0), abs=1e-9)

    def test_pair_permutation_invariance(self):
        rng = np.random.default_rng(1)
        qs = [rng.standard_normal((3, 5)) for _ in range(4)]
        ts = rng.standard_normal((4, 5))
        perm = rng.permutation(4)
        a = contrastive_loss(sim_matrix(qs, ts)).item()
        b = contrastive_loss(
            sim_matrix([qs[i] for i in perm], ts[perm])).item()
        assert a == pytest.approx(b, abs=1e-9)

    def test_temperature_monotone_gap(self):
        idq = [np.stack([e]) for e in np.eye(3)]
        idt = np.eye(3)
        unq = [np.stack([E1])] * 3
        unt = np.stack([E1] * 3)
        gaps = []
        for tau in (1.0, 0.5, 0.1):
            gap = (
                contrastive_loss(sim_matrix(unq, unt), tau=tau).item()
                - contrastive_loss(sim_matrix(idq, idt), tau=tau).item()
            )
            gaps.append(gap)
        assert gaps[0] < gaps[1] < gaps[2]

    def test_bad_tau(self):
        with pytest.raises(ContractError):
            contrastive_loss(sim_matrix([np.stack([E1])], np.stack([E1])),
                             tau=0.0)

    def test_symmetric_flag_adds_reverse_direction(self):
        rng = np.random.default_rng(2)
        qs = [rng.standard_normal((2, 4)) for _ in range(3)]
        ts = rng.standard_normal((3, 4))
        one_way = contrastive_loss(sim_matrix(qs, ts)).item()
        both = contrastive_loss(sim_matrix(qs, ts), symmetric=True).item()
        assert both > one_way

    def test_gradients(self):
        rng = np.random.default_rng(3)
        q0 = Tensor(rng.standard_normal((2, 4)), True)
        q1 = Tensor(rng.standard_normal((2, 4)), True)
        ts = Tensor(rng.standard_normal((2, 4)), True)
        check_grads(lambda: contrastive_loss(sim_matrix([q0, q1], ts), tau=0.5),
                    [q0, q1, ts])


class TestLmLoss:
    def test_perfect_prediction_zero(self):
        # one-hot-ish logits with a huge margin
        logits = np.full((3, 5), -200.0)
        targets = [1, 4, 2]
        for t, y in zip(range(3), targets):
            logits[t, y] = 200.0
        assert lm_token_loss(logits, targets).item() == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits_hand_value(self):
        got = lm_token_loss(np.zeros((3, 16)), [0, 5, 9]).item()
        assert got == pytest.approx(3.0 * np.log(16.0), abs=1e-12)

    def test_half_quarter_hand_value(self):
        logits = np.log(np.array([[0.5, 0.5], [0.25, 0.75]]))
        got = lm_token_loss(logits, [0, 0]).item()
        assert got == pytest.approx(np.log(2.0) + np.log(4.0), abs=1e-12)

    def test_out_of_range_target(self):
        with pytest.raises(ValidationError):
            lm_token_loss(np.zeros((2, 4)), [0, 4])

    def test_gradients(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.standard_normal((4, 6)), True)
        check_grads(lambda: lm_token_loss(logits, [2, 0, 5, 3]), [logits])


class TestAssociation:
    def test_confident_correct_zero(self):
        got = association_loss(np.array([1.0, 1.0]), np.array([1, 1])).item()
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_half_everywhere(self):
        got = association_loss(np.full(3, 0.5), np.array([1, 0, 1])).item()
        assert got == pytest.approx(3.0 * np.log(2.0), abs=1e-12)

    def test_single_hand_value(self):
        got = association_loss(np.array([0.9]), np.array([1])).item()
        assert got == pytest.approx(-np.log(0.9), abs=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(5)
        raw = Tensor(rng.standard_normal(5), True)
        labels = np.array([1, 0, 1, 1, 0])
        check_grads(lambda: association_loss(raw.sigmoid(), labels), [raw])


class TestHardNegatives:
    def test_n2_unique_other(self):
        s = np.array([[0.9, 0.1], [0.2, 0.8]])
        for seed in range(20):
            tn, gn = hard_negative_sample(s, seed)
            np.testing.assert_array_equal(tn, [1, 0])
            np.testing.assert_array_equal(gn, [1, 0])

    def test_never_picks_positive(self):
        rng = np.random.default_rng(6)
        s = rng.standard_normal((4, 4))
        hits = 0
        for seed in range(1250):  # 1250 * 4 rows * 2 directions = 10^4 draws
            tn, gn = hard_negative_sample(s, seed)
            hits += (tn == np.arange(4)).sum() + (gn == np.arange(4)).sum()
        assert hits == 0

    def test_skewed_row_frequency(self):
        s = np.zeros((3, 3))
        s[0, 1] = 2.0
        s[0, 2] = 0.0
        want = np.exp(2.0) / (np.exp(2.0) + 1.0)
        picks = 0
        n_draws = 20000
        for seed in range(n_draws):
            tn, _ = hard_negative_sample(s, seed)
            picks += tn[0] == 1
        assert picks / n_draws == pytest.approx(want, abs=0.01)

    def test_small_batch_rejected(self):
        with pytest.raises(ContractError):
            hard_negative_sample(np.ones((1, 1)), 0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal((5, 5))
        a = hard_negative_sample(s, 99)
        b = hard_negative_sample(s, 99)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestTotals:
    """The pretraining total is the plain sum of its three parts."""

    @staticmethod
    def micro_loss(n):
        cfg = Config(d_enc=8, L_enc=1, d_b=8, n_q=2, L_b=1, n_heads=1,
                     d_lm=8, L_lm=1, lm_heads=1)
        models = tr.build_models(cfg, seed=8)
        batch = [(tr.encode_structure(rec.structure, models),
                  tr._bridge_text_ids(models.vocab, tr.caption_for(rec, 8)))
                 for rec in generate_synthetic_records(seed=8, n=n)]
        return tr._pretrain_micro_loss(batch, models, cfg, neg_seed=8)

    def test_zero_sum(self):
        # one pair: no contrast and no negatives, so two parts are zero
        total, (con, pred, assoc) = self.micro_loss(1)
        assert (con, assoc) == (0.0, 0.0)
        assert total.item() == pred > 0.0

    def test_plain_sum(self):
        total, parts = self.micro_loss(4)
        assert all(p > 0.0 for p in parts)
        assert total.item() == pytest.approx(sum(parts), rel=1e-12)

    def test_matches_sequential_addition(self):
        total, (con, pred, assoc) = self.micro_loss(3)
        assert total.item() == (con + pred) + assoc


class TestFinetune:
    def test_uniform_two_answer_tokens(self):
        logits = np.zeros((6, 16))
        targets = np.arange(6) % 16
        mask = np.array([0, 0, 0, 0, 1, 1], dtype=bool)
        got = finetune_loss([(logits, targets, mask)]).item()
        assert got == pytest.approx(2.0 * np.log(16.0), abs=1e-12)

    def test_prompt_targets_ignored(self):
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((5, 8))
        mask = np.array([0, 0, 1, 1, 1], dtype=bool)
        t1 = np.array([0, 1, 2, 3, 4])
        t2 = np.array([7, 6, 2, 3, 4])  # prompt positions differ
        a = finetune_loss([(logits, t1, mask)]).item()
        b = finetune_loss([(logits, t2, mask)]).item()
        assert a == b

    def test_reduces_to_lm_loss_single_sample(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal((6, 9))
        targets = rng.integers(0, 9, size=6)
        mask = np.array([0, 1, 1, 0, 1, 0], dtype=bool)
        a = finetune_loss([(logits, targets, mask)]).item()
        b = lm_token_loss(logits[mask], targets[mask]).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_batch_mean(self):
        logits = np.zeros((2, 4))
        mask = np.array([1, 1], dtype=bool)
        one = finetune_loss([(logits, [0, 1], mask)]).item()
        two = finetune_loss([(logits, [0, 1], mask)] * 2).item()
        assert one == pytest.approx(two, abs=1e-12)

    def test_empty_mask_rejected(self):
        with pytest.raises(ContractError):
            finetune_loss([(np.zeros((2, 4)), [0, 1], np.zeros(2, dtype=bool))])

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            finetune_loss([])

    def test_gradients(self):
        rng = np.random.default_rng(11)
        l1 = Tensor(rng.standard_normal((4, 6)), True)
        l2 = Tensor(rng.standard_normal((3, 6)), True)
        m1 = np.array([0, 1, 1, 0], dtype=bool)
        m2 = np.array([1, 0, 1], dtype=bool)
        check_grads(
            lambda: finetune_loss(
                [(l1, [1, 2, 3, 0], m1), (l2, [5, 4, 0], m2)]
            ),
            [l1, l2],
        )


class TestNonnegativity:
    def test_losses_nonnegative_random(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            qs = [rng.standard_normal((2, 4)) for _ in range(3)]
            ts = rng.standard_normal((3, 4))
            assert contrastive_loss(sim_matrix(qs, ts)).item() >= 0.0
            logits = rng.standard_normal((4, 7))
            assert lm_token_loss(logits, rng.integers(0, 7, 4)).item() >= 0.0
            s = rng.uniform(0.01, 0.99, 4)
            y = rng.integers(0, 2, 4)
            assert association_loss(s, y).item() >= 0.0
