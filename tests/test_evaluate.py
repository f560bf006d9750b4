"""Answer parsing, metrics, PCA projection, and report assembly."""

import dataclasses

import numpy as np
import pytest

from matterbridge.config import Config
from matterbridge.datasetgen import build_instruction_corpus
from matterbridge.datasetgen import generate_synthetic_records, render_sample
from matterbridge.errors import ContractError, ValidationError
from matterbridge.evaluate import (
    CLASSIFICATION_TASKS,
    EVAL_TASKS,
    eval_classification,
    eval_rmse,
    evaluate_checkpoint,
    generate_answer,
    label_set,
    parse_answer_value,
    project_2d_pca,
    read_eval_report,
    write_eval_report,
)
from matterbridge.rag import EmbeddingRecord, EmbeddingStore, embed_material
from matterbridge.templates import NUMERIC_TASKS, format_value
from matterbridge.trainer import build_models, encode_structure, save_checkpoint


def small_config(**overrides):
    base = dict(d_enc=16, L_enc=1, d_b=16, n_q=8, L_b=2, n_heads=2,
                d_lm=32, L_lm=1, lm_heads=2, batch_size=4,
                pretrain_accum=1, finetune_accum=1,
                pretrain_epochs=1, finetune_epochs=1)
    base.update(overrides)
    return Config(**base)


class TestParseNumeric:
    def test_formation_energy_sentence(self):
        text = "The formation energy of this material is 0.05912 eV/atom."
        assert parse_answer_value(text, "formation_energy") == 0.05912

    def test_bandgap_sentence(self):
        text = "The bandgap of this material is 1.25000 eV."
        assert parse_answer_value(text, "bandgap") == 1.25

    def test_negative_value(self):
        text = "It sits at -0.59780 eV/atom."
        assert parse_answer_value(text, "energy_above_hull") == -0.5978

    def test_value_adjacent_to_unit_wins(self):
        text = "All 4 atoms give a formation energy of -0.10000 eV/atom."
        assert parse_answer_value(text, "formation_energy") == -0.1

    def test_no_value_is_a_parse_error(self):
        with pytest.raises(ValidationError, match="no eV"):
            parse_answer_value("no value here", "bandgap")

    def test_empty_text_rejected(self):
        with pytest.raises(ValidationError):
            parse_answer_value("", "bandgap")

    def test_inverts_format_value(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(-5.0, 5.0, size=10000)
        kinds = ["energy", "energy_per_atom", "energy_per_atom"]
        for task, kind in zip(NUMERIC_TASKS, kinds):
            for x in values:
                text = f"The answer is {format_value(x, kind)}."
                got = parse_answer_value(text, task)
                assert abs(got - x) <= 5e-6

    def test_parses_rendered_answers(self):
        records = generate_synthetic_records(3, 6)
        for rec in records:
            for task in NUMERIC_TASKS:
                sample = render_sample(rec, task, 0, 0)
                got = parse_answer_value(sample.answer, task)
                assert abs(got - sample.numeric_target) <= 5e-6


class TestParseClassification:
    def test_non_metal_before_metal(self):
        text = "This material is classified as non-metal."
        assert parse_answer_value(text, "is_metal") == "non-metal"

    def test_metal(self):
        text = "This material is a metal."
        assert parse_answer_value(text, "is_metal") == "metal"

    def test_indirect_before_direct(self):
        text = "The bandgap is indirect."
        assert parse_answer_value(text, "direct_bandgap") == "indirect"

    def test_not_stable_before_stable(self):
        text = "The compound is not stable."
        assert parse_answer_value(text, "stability") == "not stable"

    def test_not_observed_before_observed(self):
        text = "It has not experimentally observed status."
        got = parse_answer_value(text, "exp_observed")
        assert got == "not experimentally observed"

    def test_non_magnetic(self):
        text = "The material is non-magnetic."
        assert parse_answer_value(text, "is_magnetic") == "non-magnetic"

    @pytest.mark.parametrize("order", ["NM", "FM", "AFM", "FiM"])
    def test_magnetic_orders(self, order):
        text = f"The magnetic ordering of this material is {order}."
        assert parse_answer_value(text, "magnetic_order") == order

    def test_no_label_is_a_parse_error(self):
        with pytest.raises(ValidationError, match="no is_metal label"):
            parse_answer_value("nothing informative", "is_metal")

    def test_description_tasks_are_not_parseable(self):
        with pytest.raises(ContractError):
            parse_answer_value("anything", "crystal_system")
        with pytest.raises(ContractError):
            label_set("formula")

    def test_rendered_answers_round_trip(self):
        from matterbridge.templates import attribute_text

        records = generate_synthetic_records(5, 8)
        for rec in records:
            for task in CLASSIFICATION_TASKS:
                sample = render_sample(rec, task, 0, 0)
                got = parse_answer_value(sample.answer, task)
                assert got == attribute_text(rec, task)


class TestClassificationMetric:
    def test_all_correct(self):
        assert eval_classification(["a", "b"], ["a", "b"]) == 1.0

    def test_three_of_four(self):
        got = eval_classification(["a", "b", "c", "d"], ["a", "b", "c", "x"])
        assert got == 0.75

    def test_none_counts_incorrect(self):
        assert eval_classification([None, "a"], ["a", "a"]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            eval_classification(["a"], ["a", "b"])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            eval_classification([], [])


class TestRmseMetric:
    def test_perfect(self):
        assert eval_rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_errors(self):
        assert eval_rmse([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_hand_value(self):
        got = eval_rmse([3.0, 4.0], [0.0, 0.0])
        assert abs(got - np.sqrt(12.5)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            eval_rmse([1.0], [1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            eval_rmse([np.nan], [0.0])


class TestPcaProjection:
    def test_shapes_and_fraction_bounds(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 6))
        coords, frac = project_2d_pca(x)
        assert coords.shape == (20, 2)
        assert frac.shape == (2,)
        assert 0.0 < frac[1] <= frac[0] <= 1.0

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(50, 16)) * rng.uniform(0.1, 3.0, size=16)
        _, frac = project_2d_pca(x)
        centered = x - x.mean(axis=0)
        evals = np.linalg.eigvalsh(centered.T @ centered)[::-1]
        expected = evals[:2] / evals.sum()
        np.testing.assert_allclose(frac, expected, atol=1e-8)

    def test_collinear_second_axis_vanishes(self):
        t = np.linspace(0.0, 2.0, 9)[:, None]
        x = t * np.array([1.0, -2.0, 0.5])
        coords, _ = project_2d_pca(x)
        assert float(np.var(coords[:, 1])) < 1e-10

    def test_sign_convention_is_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(12, 5))
        a, _ = project_2d_pca(x)
        b, _ = project_2d_pca(x)
        np.testing.assert_array_equal(a, b)
        c, _ = project_2d_pca(-x)
        np.testing.assert_allclose(c, -a, atol=1e-10)

    def test_identical_points_rejected(self):
        with pytest.raises(ValidationError, match="identical"):
            project_2d_pca(np.ones((5, 3)))

    def test_too_few_vectors(self):
        with pytest.raises(ValidationError, match="at least 3"):
            project_2d_pca(np.eye(2))


class TestGeneration:
    def test_deterministic_text(self):
        cfg = small_config()
        models = build_models(cfg, 3)
        rec = generate_synthetic_records(8, 2)[0]
        atoms = encode_structure(rec.structure, models)
        a = generate_answer(models, atoms, "Is this a metal?", max_new=12)
        b = generate_answer(models, atoms, "Is this a metal?", max_new=12)
        assert isinstance(a, str)
        assert a == b

    def test_prompt_must_leave_room(self):
        cfg = small_config()
        models = build_models(cfg, 3)
        rec = generate_synthetic_records(8, 2)[0]
        atoms = encode_structure(rec.structure, models)
        with pytest.raises(ValidationError, match="room"):
            generate_answer(models, atoms, "x" * 320, max_new=4)

    def test_empty_prompt_rejected(self):
        cfg = small_config()
        models = build_models(cfg, 3)
        rec = generate_synthetic_records(8, 2)[0]
        atoms = encode_structure(rec.structure, models)
        with pytest.raises(ValidationError):
            generate_answer(models, atoms, "")


class TestEvalReport:
    def _checkpoint(self, tmp_path, cfg, seed=3):
        models = build_models(cfg, seed)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, models, cfg, "finetune", 5)
        return path

    def test_report_structure(self, tmp_path):
        cfg = small_config()
        path = self._checkpoint(tmp_path, cfg)
        records = generate_synthetic_records(6, 4)
        samples = build_instruction_corpus(records, 6)
        report = evaluate_checkpoint(path, records, samples, max_new=8)
        scoreable = [s for s in samples if s.task in EVAL_TASKS]
        assert report.n_samples == len(scoreable)
        assert report.rag is False
        assert len(report.config_hash) == 16
        for task, entry in report.tasks.items():
            assert task in EVAL_TASKS
            n_task = sum(1 for s in scoreable if s.task == task)
            assert entry["count"] == n_task
            assert 0 <= entry["parse_errors"] <= n_task
            if entry["metric"] == "accuracy":
                assert 0.0 <= entry["value"] <= 1.0
            else:
                assert entry["value"] is None or entry["value"] >= 0.0

    def test_report_is_deterministic(self, tmp_path):
        cfg = small_config()
        path = self._checkpoint(tmp_path, cfg)
        records = generate_synthetic_records(6, 4)
        samples = build_instruction_corpus(records, 6)
        a = evaluate_checkpoint(path, records, samples, max_new=8)
        b = evaluate_checkpoint(path, records, samples, max_new=8)
        assert a.to_dict() == b.to_dict()

    def test_report_round_trip(self, tmp_path):
        cfg = small_config()
        path = self._checkpoint(tmp_path, cfg)
        records = generate_synthetic_records(6, 4)
        samples = build_instruction_corpus(records, 6)
        report = evaluate_checkpoint(path, records, samples, max_new=8)
        out = str(tmp_path / "report.json")
        write_eval_report(out, report)
        back = read_eval_report(out)
        assert back.to_dict() == report.to_dict()

    def test_unknown_material_rejected(self, tmp_path):
        cfg = small_config()
        path = self._checkpoint(tmp_path, cfg)
        records = generate_synthetic_records(6, 4)
        samples = build_instruction_corpus(records, 6)
        with pytest.raises(ValidationError, match="unknown material"):
            evaluate_checkpoint(path, records[:2], samples, max_new=8)

    def test_no_scoreable_samples_rejected(self, tmp_path):
        cfg = small_config()
        path = self._checkpoint(tmp_path, cfg)
        records = generate_synthetic_records(6, 4)
        samples = [s for s in build_instruction_corpus(records, 6)
                   if s.task == "formula"]
        with pytest.raises(ValidationError, match="no scoreable"):
            evaluate_checkpoint(path, records, samples, max_new=8)

    def test_rag_self_store_matches_plain(self, tmp_path):
        cfg = small_config()
        path = self._checkpoint(tmp_path, cfg)
        base = generate_synthetic_records(6, 4)[0]
        copies = [dataclasses.replace(base, material_id=f"{base.material_id}-c{i}")
                  for i in (1, 2)]
        records = [base] + copies
        samples = build_instruction_corpus([base], 6)
        models = build_models(cfg, 3)
        from matterbridge.trainer import load_checkpoint, restore_models

        models = restore_models(load_checkpoint(path))
        vec = embed_material(base.structure, models)
        store = EmbeddingStore(vec.size)
        for rec in records:
            store.add(EmbeddingRecord(rec.material_id, vec, {}))
        plain = evaluate_checkpoint(path, records, samples, max_new=8)
        ragged = evaluate_checkpoint(path, records, samples,
                                     rag_store=store, k=2, max_new=8)
        assert ragged.rag is True
        assert ragged.n_samples == plain.n_samples
        for task in plain.tasks:
            p, r = plain.tasks[task], ragged.tasks[task]
            assert p["parse_errors"] == r["parse_errors"]
            if p["value"] is None:
                assert r["value"] is None
            else:
                np.testing.assert_allclose(r["value"], p["value"],
                                           rtol=1e-12, atol=0)
