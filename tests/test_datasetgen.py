"""Templates, the synthetic oracle, record IO, rendering, splitting."""

import json
import math

import numpy as np
import pytest

from matterbridge.crystal import Structure
from matterbridge.datasetgen import (
    build_instruction_corpus,
    generate_synthetic_records,
    load_instruction_samples,
    load_property_records,
    record_to_dict,
    render_sample,
    sample_to_dict,
    split_dataset,
    synthetic_labels,
    validate_record,
    write_property_records,
)
from matterbridge.errors import ContractError, ValidationError
from matterbridge.templates import (
    ATTRIBUTE_TOKEN,
    STRUCTURE_TOKEN,
    TASKS,
    attribute_text,
    format_value,
    get_templates,
)

EXPECTED_COUNTS = {
    "formula": (9, 9),
    "space_group": (10, 10),
    "crystal_system": (9, 9),
    "is_metal": (10, 10),
    "direct_bandgap": (10, 10),
    "stability": (6, 6),
    "exp_observed": (2, 2),
    "is_magnetic": (7, 7),
    "magnetic_order": (7, 7),
    "bandgap": (5, 5),
    "formation_energy": (5, 5),
    "energy_above_hull": (6, 6),
    "generate": (4, 0),
    "general": (2, 0),
}


def si_cell(a=3.0, n=1):
    frac = np.linspace(0, 0.9, 3 * n).reshape(n, 3) % 1.0
    return Structure("si-test", np.eye(3) * a, ["Si"] * n, frac)


def make_record(structure=None, **overrides):
    from matterbridge.datasetgen import PropertyRecord

    structure = structure or si_cell()
    labels = synthetic_labels(structure)
    fields = dict(
        material_id=structure.material_id,
        structure=structure,
        space_group="Pm-3m (221)",
        crystal_system="cubic",
        **labels,
    )
    fields.update(overrides)
    return PropertyRecord(**fields)


class TestTemplates:
    def test_group_sizes(self):
        for task, (n_instr, n_ans) in EXPECTED_COUNTS.items():
            g = get_templates(task)
            assert len(g.instructions) == n_instr, task
            assert len(g.answers) == n_ans, task

    def test_twelve_evaluated_tasks(self):
        assert len(TASKS) == 12
        assert all(not get_templates(t).auxiliary for t in TASKS)
        assert get_templates("generate").auxiliary

    def test_instructions_carry_structure_token(self):
        for task in EXPECTED_COUNTS:
            for instr in get_templates(task).instructions:
                assert instr.startswith(STRUCTURE_TOKEN + " ")

    def test_answers_carry_one_attribute_token(self):
        for task in TASKS:
            for ans in get_templates(task).answers:
                assert ans.count(ATTRIBUTE_TOKEN) == 1

    def test_spot_verbatim_lines(self):
        assert (
            get_templates("formula").instructions[0]
            == "<material structure> What is the chemical formula for this material?"
        )
        assert (
            get_templates("stability").answers[1]
            == "Yes, this material is <material attribute>."
        )
        assert (
            get_templates("is_metal").answers[6]
            == "This material is <material attribute>."
        )
        assert (
            get_templates("energy_above_hull").instructions[2]
            == "<material structure> What is the energy above the hull for this material?"
        )
        assert (
            get_templates("magnetic_order").answers[0]
            == "The magnetic order of the material is <material attribute>."
        )

    def test_format_value_examples(self):
        assert format_value(0.059123, "formation_energy") == "0.05912 eV/atom"
        assert format_value(0.0, "bandgap") == "0.00000 eV"
        assert format_value(0.213504, "bandgap") == "0.21350 eV"
        assert format_value(-1.25, "energy_above_hull") == "-1.25000 eV/atom"

    def test_format_value_rejects(self):
        with pytest.raises(ContractError):
            format_value(1.0, "volts")
        with pytest.raises(ContractError):
            format_value(float("nan"), "energy")


class TestOracle:
    def test_single_element_formation_is_exact_constant(self):
        labels = synthetic_labels(si_cell(n=3))
        assert labels["formation_energy"] == -0.8

    def test_metal_rules(self):
        fe = Structure("m", np.eye(3) * 3, ["Fe", "O"], [[0, 0, 0], [0.5, 0.5, 0.5]])
        gan = Structure("g", np.eye(3) * 3, ["Ga", "N"], [[0, 0, 0], [0.5, 0.5, 0.5]])
        ga = Structure("g2", np.eye(3) * 3, ["Ga"], [[0, 0, 0]])
        assert synthetic_labels(fe)["is_metal"]
        assert not synthetic_labels(gan)["is_metal"]
        assert synthetic_labels(ga)["is_metal"]

    def test_metal_implies_zero_gap(self):
        fe = Structure("m", np.eye(3) * 3, ["Fe", "C"], [[0, 0, 0], [0.5, 0.5, 0.5]])
        labels = synthetic_labels(fe)
        assert labels["bandgap"] == 0.0
        assert not labels["is_direct_bandgap"]

    def test_magnetic_order_by_iron_count(self):
        want = {0: "NM", 1: "FM", 2: "AFM", 3: "FiM", 4: "AFM", 5: "FiM"}
        for n_fe, order in want.items():
            species = ["Si"] + ["Fe"] * n_fe
            coords = np.linspace(0, 0.8, 3 * len(species)).reshape(-1, 3)
            s = Structure("x", np.eye(3) * 5, species, coords)
            assert synthetic_labels(s)["magnetic_order"] == order

    def test_hull_energy_nonnegative_and_gates(self):
        rng = np.random.default_rng(0)
        for rec in generate_synthetic_records(3, 40):
            assert rec.energy_above_hull >= 0
            if rec.is_stable:
                assert rec.is_experimentally_observed

    def test_determinism(self):
        a = generate_synthetic_records(7, 16)
        b = generate_synthetic_records(7, 16)
        assert [record_to_dict(r) for r in a] == [record_to_dict(r) for r in b]

    def test_generated_records_validate(self):
        for rec in generate_synthetic_records(11, 60):
            validate_record(rec)

    def test_label_coverage(self):
        # the oracle must produce both classes for every binary task
        recs = generate_synthetic_records(5, 200)
        assert {r.is_metal for r in recs} == {True, False}
        assert {r.is_stable for r in recs} == {True, False}
        assert {r.is_magnetic for r in recs} == {True, False}
        assert len({r.magnetic_order for r in recs}) >= 3
        assert len({r.crystal_system for r in recs}) == 7

    def test_cubic_system_has_cubic_cell(self):
        recs = [r for r in generate_synthetic_records(2, 50)
                if r.crystal_system == "cubic"]
        assert recs
        for r in recs:
            lat = r.structure.lattice
            a = lat[0, 0]
            np.testing.assert_allclose(lat, np.eye(3) * a, atol=1e-9)


class TestRecordIO:
    def test_round_trip(self, tmp_path):
        recs = generate_synthetic_records(9, 5)
        path = tmp_path / "records.jsonl"
        write_property_records(path, recs)
        back = load_property_records(path)
        assert [record_to_dict(r) for r in back] == [record_to_dict(r) for r in recs]

    def test_three_record_file(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_property_records(path, generate_synthetic_records(1, 3))
        assert len(load_property_records(path)) == 3

    def test_negative_hull_rejected_with_line(self, tmp_path):
        recs = generate_synthetic_records(1, 2)
        recs[1].energy_above_hull = -0.1
        path = tmp_path / "bad.jsonl"
        write_property_records(path, recs)
        with pytest.raises(ValidationError, match="line 2"):
            load_property_records(path)

    def test_duplicate_ids_name_both_lines(self, tmp_path):
        recs = generate_synthetic_records(1, 2)
        recs[1].material_id = recs[0].material_id
        recs[1].structure.material_id = recs[0].material_id
        path = tmp_path / "dup.jsonl"
        write_property_records(path, recs)
        with pytest.raises(ValidationError, match="line 2.*line 1"):
            load_property_records(path)

    def test_missing_field_itemized(self, tmp_path):
        recs = generate_synthetic_records(1, 1)
        obj = record_to_dict(recs[0])
        del obj["bandgap"]
        path = tmp_path / "miss.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ValidationError, match="line 1"):
            load_property_records(path)


    def test_integer_floats_load_as_floats(self, tmp_path):
        recs = generate_synthetic_records(1, 4)
        path = tmp_path / "ints.jsonl"
        with open(path, "w") as fh:
            for r in recs:
                obj = record_to_dict(r)
                obj.update(formation_energy=-1, energy_above_hull=0,
                           bandgap=0 if r.is_metal else 2)
                fh.write(json.dumps(obj) + "\n")
        for r in load_property_records(path):
            for name in ("formation_energy", "energy_above_hull", "bandgap"):
                assert type(getattr(r, name)) is float
            assert r.bandgap == (0.0 if r.is_metal else 2.0)

    def test_integer_sample_target_loads_as_float(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps({"material_id": "m", "task": "bandgap",
                                    "prompt": "p", "answer": "a",
                                    "numeric_target": 2}) + "\n")
        (sample,) = load_instruction_samples(path)
        assert type(sample.numeric_target) is float
        assert sample.numeric_target == 2.0


class TestRender:
    def test_formula_first_templates(self):
        rec = make_record()
        s = render_sample(rec, "formula", 0, 0)
        assert s.prompt == (
            "<material structure> What is the chemical formula for this material?"
        )
        assert s.answer == "The chemical formula for this material is Si."
        assert s.numeric_target is None
        assert s.material_id == rec.material_id

    def test_formation_energy_embeds_formatted_value(self):
        rec = make_record()
        s = render_sample(rec, "formation_energy", 0, 0)
        assert s.answer == (
            "The formation energy of this material is -0.80000 eV/atom."
        )
        assert s.numeric_target == rec.formation_energy

    def test_index_out_of_range(self):
        rec = make_record()
        with pytest.raises(ContractError):
            render_sample(rec, "formula", 99, 0)
        with pytest.raises(ContractError):
            render_sample(rec, "formula", 0, 99)
        with pytest.raises(ContractError):
            render_sample(rec, "made_up_task", 0, 0)

    def test_all_template_indices_match_golden_sources(self):
        # every (task, instr, ans) combination reproduces its source
        # template exactly, with only the attribute site substituted
        rec = make_record()
        for task in TASKS:
            g = get_templates(task)
            attr = attribute_text(rec, task)
            for ii in range(len(g.instructions)):
                for ai in range(len(g.answers)):
                    s = render_sample(rec, task, ii, ai)
                    assert s.prompt == g.instructions[ii]
                    assert s.answer == g.answers[ai].replace(ATTRIBUTE_TOKEN, attr)

    def test_corpus_twelve_samples_per_record(self):
        recs = generate_synthetic_records(4, 3)
        corpus = build_instruction_corpus(recs, seed=1)
        assert len(corpus) == 36
        assert [s.task for s in corpus[:12]] == list(TASKS)

    def test_corpus_deterministic(self):
        recs = generate_synthetic_records(4, 3)
        a = build_instruction_corpus(recs, seed=5)
        b = build_instruction_corpus(recs, seed=5)
        assert [sample_to_dict(s) for s in a] == [sample_to_dict(s) for s in b]
        c = build_instruction_corpus(recs, seed=6)
        assert [sample_to_dict(s) for s in a] != [sample_to_dict(s) for s in c]

    def test_numeric_targets_only_on_numeric_tasks(self):
        recs = generate_synthetic_records(2, 2)
        for s in build_instruction_corpus(recs, seed=0):
            if s.task in ("bandgap", "formation_energy", "energy_above_hull"):
                assert isinstance(s.numeric_target, float)
            else:
                assert s.numeric_target is None


class TestSplit:
    def test_ten_records(self):
        train, test = split_dataset(list(range(10)), seed=0)
        assert len(train) == 9 and len(test) == 1
        assert sorted(train + test) == list(range(10))

    def test_too_few(self):
        with pytest.raises(ContractError):
            split_dataset(list(range(9)), seed=0)

    def test_deterministic_and_disjoint(self):
        items = list(range(137))
        a_train, a_test = split_dataset(items, seed=42)
        b_train, b_test = split_dataset(items, seed=42)
        assert a_train == b_train and a_test == b_test
        assert not set(a_train) & set(a_test)
        assert len(a_train) == 123  # floor(0.9 * 137)

    def test_different_seed_different_partition(self):
        items = list(range(50))
        a = split_dataset(items, seed=1)[0]
        b = split_dataset(items, seed=2)[0]
        assert a != b
