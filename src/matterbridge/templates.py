"""Instruction/answer template registry and attribute surface forms.

Templates live in ``data/templates/<task>.txt``, one group per file with
``# instructions`` and ``# answers`` sections.  Prompts keep the literal
``<material structure>`` placeholder (the structure itself enters
through the graph branch; the sample's material_id records the
binding).  Answers substitute ``<material attribute>`` with the task's
formatted attribute.

Twelve tasks carry answers; the ``generate`` and ``general`` groups
are auxiliary prompt-only material.  Every fact about a task is a table
here, and the rest of the package derives from them: the record field
its answer reads (``FIELDS``), a numeric task's unit (``UNITS``) and a
classification task's closed label set (``LABELS``).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .errors import ContractError, ValidationError

STRUCTURE_TOKEN = "<material structure>"
ATTRIBUTE_TOKEN = "<material attribute>"

# the record field each answer task reads; description tasks first,
# then property tasks, in the canonical task order of dataset builds
FIELDS = {
    "formula": "reduced_formula",
    "space_group": "space_group",
    "crystal_system": "crystal_system",
    "is_metal": "is_metal",
    "direct_bandgap": "is_direct_bandgap",
    "stability": "is_stable",
    "exp_observed": "is_experimentally_observed",
    "is_magnetic": "is_magnetic",
    "magnetic_order": "magnetic_order",
    "bandgap": "bandgap",
    "formation_energy": "formation_energy",
    "energy_above_hull": "energy_above_hull",
}
TASKS = tuple(FIELDS)
AUXILIARY = ("generate", "general")

# the unit each numeric task's answer carries
UNITS = {"bandgap": "eV", "formation_energy": "eV/atom",
         "energy_above_hull": "eV/atom"}
NUMERIC_TASKS = tuple(UNITS)

# fixed classification surface forms: (value when True, value when False)
BINARY_FORMS = {
    "is_metal": ("metal", "non-metal"),
    "direct_bandgap": ("direct", "indirect"),
    "stability": ("stable", "not stable"),
    "exp_observed": ("experimentally observed", "not experimentally observed"),
    "is_magnetic": ("magnetic", "non-magnetic"),
}

MAGNETIC_ORDERS = ("NM", "FM", "AFM", "FiM")
# the closed label set of each classification task
LABELS = {**BINARY_FORMS, "magnetic_order": MAGNETIC_ORDERS}
CRYSTAL_SYSTEMS = (
    "triclinic", "monoclinic", "orthorhombic", "tetragonal",
    "trigonal", "hexagonal", "cubic",
)


@dataclass(frozen=True)
class TemplateGroup:
    task: str
    instructions: tuple
    answers: tuple
    auxiliary: bool


def _load_group(task):
    ref = resources.files("matterbridge.data.templates").joinpath(f"{task}.txt")
    section = None
    instructions, answers = [], []
    for raw in ref.read_text(encoding="utf-8").splitlines():
        if raw == "# instructions":
            section = instructions
        elif raw == "# answers":
            section = answers
        elif raw.strip():
            if section is None:
                raise ValidationError(f"template file {task} lacks a section header")
            section.append(raw)
    return TemplateGroup(
        task=task,
        instructions=tuple(instructions),
        answers=tuple(answers),
        auxiliary=task in AUXILIARY,
    )


_CACHE = {}


def get_templates(task):
    if task not in TASKS and task not in AUXILIARY:
        raise ContractError(f"unknown task {task!r}")
    if task not in _CACHE:
        _CACHE[task] = _load_group(task)
    return _CACHE[task]


def format_value(x, task):
    """Fixed 5-decimal rendering with the task's unit (round-half-even)."""
    x = float(x)
    if not abs(x) < float("inf"):
        raise ContractError(f"non-finite value {x}")
    if task not in UNITS:
        raise ContractError(f"task {task!r} has no unit")
    return f"{x:.5f} {UNITS[task]}"


def attribute_text(record, task):
    """The attribute surface form a rendered answer embeds for ``task``."""
    if task not in FIELDS:
        raise ContractError(f"unknown task {task!r}")
    value = getattr(record, FIELDS[task])
    if task in UNITS:
        return format_value(value, task)
    if task in BINARY_FORMS:
        yes, no = BINARY_FORMS[task]
        return yes if value else no
    return value


def numeric_target(record, task):
    return float(getattr(record, FIELDS[task])) if task in UNITS else None


def render_prompt(task, instr_idx):
    group = get_templates(task)
    if not 0 <= instr_idx < len(group.instructions):
        raise ContractError(
            f"instruction index {instr_idx} out of range for {task}"
        )
    return group.instructions[instr_idx]


def render_answer(record, task, ans_idx):
    group = get_templates(task)
    if group.auxiliary:
        raise ContractError(f"task {task!r} has no answer templates")
    if not 0 <= ans_idx < len(group.answers):
        raise ContractError(f"answer index {ans_idx} out of range for {task}")
    return group.answers[ans_idx].replace(ATTRIBUTE_TOKEN, attribute_text(record, task))
