"""Answer parsing, metrics, PCA projection, and report assembly."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from matterbridge.config import Config
from matterbridge.datasetgen import build_instruction_corpus
from matterbridge.datasetgen import InstructionSample
from matterbridge.datasetgen import generate_synthetic_records, render_sample
from matterbridge import evaluate
from matterbridge.errors import (ContractError, MatterBridgeError, ShapeError,
                                 ValidationError)
from matterbridge.evaluate import (
    CLASSIFICATION_TASKS,
    DECODE_ROWS,
    DEFAULT_MAX_NEW,
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
from matterbridge.fixtures import build_fixture_corpus
from matterbridge.ioutil import canonical_json
from matterbridge.rag import (EmbeddingStore, embed_material,
                              material_prefixes, model_fingerprint,
                              rag_aggregate, retrieve_topk)
from matterbridge.templates import NUMERIC_TASKS, format_value, render_prompt
from matterbridge.trainer import (build_models, load_checkpoint,
                                  restore_models, save_checkpoint)

FROZEN_CKPT = (Path(__file__).resolve().parents[1] / "perfbench" / "data"
               / "frozen.ckpt")


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
        for task in NUMERIC_TASKS:
            for x in values:
                text = f"The answer is {format_value(x, task)}."
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
        prefixes = material_prefixes([rec.structure], models)
        a = generate_answer(models, prefixes, "Is this a metal?", max_new=12)
        b = generate_answer(models, prefixes, "Is this a metal?", max_new=12)
        assert isinstance(a, list) and len(a) == 1
        assert a == b

    def test_prefix_must_be_a_stack(self):
        cfg = small_config()
        models = build_models(cfg, 3)
        rec = generate_synthetic_records(8, 2)[0]
        prefixes = material_prefixes([rec.structure], models)
        with pytest.raises(ShapeError):
            generate_answer(models, prefixes[0], "Is this a metal?", 4)

    def test_prompt_must_leave_room(self):
        # the LM's own length rule rejects an overflowing prompt
        cfg = small_config()
        models = build_models(cfg, 3)
        rec = generate_synthetic_records(8, 2)[0]
        prefixes = material_prefixes([rec.structure], models)
        with pytest.raises(ContractError, match="exceeds"):
            generate_answer(models, prefixes, "x" * 320, max_new=4)

    def test_prompt_that_fills_the_context_decodes_one_symbol(self):
        # as lm.generate_greedy does; an untrained model writes no EOS
        models = build_models(Config(), 3)
        rec = generate_synthetic_records(8, 2)[0]
        prefixes = material_prefixes([rec.structure], models)
        # BOS + n symbols + SEP end exactly at the last context position
        n = models.lm.max_len - prefixes.shape[1] - 2
        [one] = generate_answer(models, prefixes, "x" * n, max_new=4)
        assert len(one) == 1
        [two] = generate_answer(models, prefixes, "x" * (n - 1), max_new=4)
        assert len(two) == 2

    def test_max_new_past_the_room_stops_at_the_context(self):
        # an untrained model writes no EOS, so it fills the context
        models = build_models(Config(), 3)
        rec = generate_synthetic_records(8, 2)[0]
        prefixes = material_prefixes([rec.structure], models)
        prompt = "Is this a metal?"
        # the prompt ids are BOS, its symbols and SEP
        room = (models.lm.max_len - prefixes.shape[1]
                - len(models.vocab.tokenize(prompt)) - 2)
        [full] = generate_answer(models, prefixes, prompt, max_new=room + 1)
        assert len(full) == room + 1
        assert generate_answer(models, prefixes, prompt,
                               max_new=room + 10) == [full]

    def test_unset_max_new_decodes_as_the_default(self):
        # 200 queries leave the prompt less room than DEFAULT_MAX_NEW,
        # and an untrained model writes no EOS, so it fills the context
        models = build_models(Config(n_q=200), 3)
        rec = build_fixture_corpus()[0][0]
        prefixes = material_prefixes([rec.structure], models)
        prompt = render_prompt("bandgap", 0)
        room = (models.lm.max_len - prefixes.shape[1]
                - len(models.vocab.tokenize(prompt)) - 2)
        assert room < DEFAULT_MAX_NEW
        [unset] = generate_answer(models, prefixes, prompt)
        assert len(unset) == room + 1
        assert generate_answer(models, prefixes, prompt,
                               max_new=DEFAULT_MAX_NEW) == [unset]

    def test_empty_prompt_rejected(self):
        cfg = small_config()
        models = build_models(cfg, 3)
        rec = generate_synthetic_records(8, 2)[0]
        prefixes = material_prefixes([rec.structure], models)
        with pytest.raises(ValidationError):
            generate_answer(models, prefixes, "")


_GOOD_REPORT = {"config_hash": "abc", "rag": False, "n_samples": 3,
                "tasks": {}}

# name -> bytes of a malformed report file
BAD_REPORTS = {
    "not-utf8": b"\xff" + json.dumps(_GOOD_REPORT).encode(),
    "a-number": b"5",
    "a-list": json.dumps([_GOOD_REPORT]).encode(),
    "config-hash-not-string":
        json.dumps({**_GOOD_REPORT, "config_hash": 7}).encode(),
    "rag-not-bool": json.dumps({**_GOOD_REPORT, "rag": 0}).encode(),
    "n-samples-a-string":
        json.dumps({**_GOOD_REPORT, "n_samples": "abc"}).encode(),
    "n-samples-a-float":
        json.dumps({**_GOOD_REPORT, "n_samples": 3.5}).encode(),
    "n-samples-a-bool":
        json.dumps({**_GOOD_REPORT, "n_samples": True}).encode(),
    "tasks-a-list": json.dumps({**_GOOD_REPORT, "tasks": []}).encode(),
    "unknown-key": json.dumps({**_GOOD_REPORT, "note": "x"}).encode(),
}


class TestReadReport:
    @pytest.mark.parametrize("case", sorted(BAD_REPORTS))
    def test_malformed_report_is_a_validation_error(self, tmp_path, case):
        path = tmp_path / "report.json"
        path.write_bytes(BAD_REPORTS[case])
        with pytest.raises(ValidationError):
            read_eval_report(str(path))


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
        store = EmbeddingStore([rec.material_id for rec in records],
                               np.tile(vec, (len(records), 1)),
                               model_fingerprint(models))
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


def per_answer_predictions(models, structures, samples, store=None,
                           k=evaluate.DEFAULT_RAG_K, max_new=None):
    """The reference for batched eval: one generate_answer per answer
    and one embed_material per retrieval, then the parse and vote rules."""
    def answer(material_id, prompt):
        prefixes = material_prefixes([structures[material_id]], models)
        [text] = generate_answer(models, prefixes, prompt, max_new)
        return text

    def value(text, task):
        try:
            return parse_answer_value(text, task)
        except MatterBridgeError:
            return None

    out = []
    for s in samples:
        own = answer(s.material_id, s.prompt)
        neighbors = ()
        if store is not None:
            vec = embed_material(structures[s.material_id], models)
            neighbors = tuple(h.material_id for h in retrieve_topk(
                store, vec, k, exclude_id=s.material_id))
        final = value(own, s.task)
        votes = [v for v in (value(answer(n, s.prompt), s.task)
                             for n in neighbors) if v is not None]
        if final is not None and votes:
            kind = ("numeric" if s.task in NUMERIC_TASKS
                    else "classification")
            final = rag_aggregate(final, votes, kind)
        out.append(evaluate.Prediction(own, neighbors, final))
    return out


class TestBatchedEval:
    """evaluate_checkpoint decodes per prompt in batches of DECODE_ROWS."""

    @pytest.fixture(params=["untrained", "frozen"])
    def setup(self, request, tmp_path):
        if request.param == "frozen":
            # a trained model whose answers parse, so neighbours count
            return str(FROZEN_CKPT), build_fixture_corpus()[0][:24], None
        path = str(tmp_path / "model.ckpt")
        cfg = small_config()
        save_checkpoint(path, build_models(cfg, 3), cfg, "finetune", 5)
        return path, generate_synthetic_records(6, 24), 8

    @staticmethod
    def samples(records):
        """Prompt groups of DECODE_ROWS + 4, 5 and 2 materials; the last
        two share a material, and so its neighbours."""
        ids = [r.material_id for r in records]
        groups = [("is_metal", 0, ids[:DECODE_ROWS + 4]),
                  ("bandgap", 1, ids[3:8]),
                  ("magnetic_order", 2, ids[7:9])]
        return [InstructionSample(mid, task, render_prompt(task, idx), "")
                for task, idx, members in groups for mid in members]

    def test_report_equals_per_sample_loop(self, setup, monkeypatch):
        path, records, max_new = setup
        samples = self.samples(records)
        models = restore_models(load_checkpoint(path))
        store = EmbeddingStore(
            [r.material_id for r in records],
            np.stack([embed_material(r.structure, models) for r in records]),
            model_fingerprint(models))
        rows = []
        batched = evaluate.generate_answer

        def counting(models, prefix, prompt, max_new=None):
            rows.append(prefix.shape[0])
            return batched(models, prefix, prompt, max_new)

        monkeypatch.setattr(evaluate, "generate_answer", counting)
        stores = (None, store)
        got = [evaluate_checkpoint(path, records, samples, rag_store=rag,
                                   max_new=max_new) for rag in stores]
        assert max(rows) == DECODE_ROWS
        assert len(rows) < len(samples)
        monkeypatch.setattr(evaluate, "generate_answer", batched)
        monkeypatch.setattr(evaluate, "predict_samples",
                            per_answer_predictions)
        want = [evaluate_checkpoint(path, records, samples, rag_store=rag,
                                    max_new=max_new) for rag in stores]
        for a, b in zip(got, want, strict=True):
            assert canonical_json(a.to_dict()) == canonical_json(b.to_dict())
        if path == str(FROZEN_CKPT):
            assert got[0].tasks != got[1].tasks  # the neighbours count

    def test_value_is_none_exactly_where_the_answer_does_not_parse(
            self, setup):
        path, records, max_new = setup
        samples = self.samples(records)
        models = restore_models(load_checkpoint(path))
        store = EmbeddingStore(
            [r.material_id for r in records],
            material_prefixes([r.structure for r in records],
                              models).reshape(len(records), -1),
            model_fingerprint(models))
        structures = {r.material_id: r.structure for r in records}
        for rag in (None, store):
            preds = evaluate.predict_samples(models, structures, samples, rag,
                                             2, max_new)
            errors = dict.fromkeys((s.task for s in samples), 0)
            for sample, pred in zip(samples, preds, strict=True):
                try:
                    parse_answer_value(pred.answer, sample.task)
                    parsed = True
                except MatterBridgeError:
                    parsed = False
                assert (pred.value is None) is not parsed
                assert len(pred.neighbors) == (0 if rag is None else 2)
                errors[sample.task] += pred.value is None
            report = evaluate_checkpoint(path, records, samples, rag_store=rag,
                                         k=2, max_new=max_new)
            assert {task: entry["parse_errors"]
                    for task, entry in report.tasks.items()} == errors

    def test_predictions_equal_one_sample_at_a_time(self, setup):
        path, records, max_new = setup
        ids = [r.material_id for r in records]
        # prompts interleaved; a formula answer never parses
        samples = sorted(self.samples(records) + [
            InstructionSample(mid, "formula", render_prompt("formula", 0), "")
            for mid in ids[5:7]], key=lambda s: s.material_id)
        models = restore_models(load_checkpoint(path))
        store = EmbeddingStore(
            ids, material_prefixes([r.structure for r in records],
                                   models).reshape(len(records), -1),
            model_fingerprint(models))
        structures = {r.material_id: r.structure for r in records}
        for rag in (None, store):
            got = evaluate.predict_samples(models, structures, samples, rag,
                                           2, max_new)
            want = [evaluate.predict_samples(models, structures, [s], rag, 2,
                                             max_new)[0] for s in samples]
            assert got == want
            assert got == per_answer_predictions(models, structures, samples,
                                                 rag, 2, max_new)
            assert any(p.value is None for p in got)
            if path == str(FROZEN_CKPT):
                assert not all(p.value is None for p in got)
