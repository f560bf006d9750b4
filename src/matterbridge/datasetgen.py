"""Property records, the synthetic label oracle, instruction rendering,
and deterministic dataset splitting.

The synthetic corpus stands in for a large curated materials database.
Labels are closed-form functions of composition and cell volume so that
every task is deterministic and learnable; the full oracle is spelled
out in ``synthetic_labels`` and mirrored in the README.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .crystal import Structure, structure_from_dict, structure_to_dict
from .errors import ContractError, ValidationError
from .ioutil import load_jsonl, write_jsonl
from .templates import (
    CRYSTAL_SYSTEMS,
    MAGNETIC_ORDERS,
    TASKS,
    get_templates,
    numeric_target,
    render_answer,
    render_prompt,
)

ELEMENT_POOL = ("Si", "C", "O", "Fe", "Ga", "N")

# per-element formation-energy constants, eV/atom
FORMATION_EV = {"Si": -0.8, "C": -1.2, "O": -1.5, "Fe": -0.6, "Ga": -0.4, "N": -1.0}
# per-element bandgap constants, eV (metals never reach the gap branch)
GAP_EV = {"Si": 1.1, "C": 3.0, "O": 2.5, "Fe": 0.0, "Ga": 1.6, "N": 2.8}

SPACE_GROUPS = {
    "cubic": ("Pm-3m (221)", "Fm-3m (225)", "Im-3m (229)"),
    "tetragonal": ("I4/mmm (139)", "P4/mmm (123)"),
    "orthorhombic": ("Pnma (62)", "Cmcm (63)"),
    "hexagonal": ("P6_3/mmc (194)", "P6/mmm (191)"),
    "trigonal": ("R-3m (166)", "R-3c (167)"),
    "monoclinic": ("P2_1/c (14)", "C2/m (12)"),
    "triclinic": ("P-1 (2)",),
}


@dataclass
class PropertyRecord:
    material_id: str
    structure: Structure
    reduced_formula: str
    space_group: str
    crystal_system: str
    is_metal: bool
    is_direct_bandgap: bool
    is_stable: bool
    is_experimentally_observed: bool
    is_magnetic: bool
    magnetic_order: str
    formation_energy: float
    energy_above_hull: float
    bandgap: float


@dataclass
class InstructionSample:
    material_id: str
    task: str
    prompt: str
    answer: str
    numeric_target: Optional[float] = None


# -- synthetic oracle --------------------------------------------------------


def reduced_formula(species):
    """Alphabetical reduced formula, counts divided by their gcd."""
    counts = Counter(species)
    g = math.gcd(*counts.values()) if len(counts) > 1 else counts.most_common(1)[0][1]
    parts = []
    for el in sorted(counts):
        c = counts[el] // g
        parts.append(el if c == 1 else f"{el}{c}")
    return "".join(parts)


def synthetic_labels(structure):
    """Closed-form labels from composition and volume per atom.

    With f_e the atom fraction of element e, k the number of distinct
    elements, and v the cell volume per atom (cubic angstroms):

    * metal        <-  Fe present, or Ga present without N
    * magnetic     <-  Fe present; order NM/FM/AFM/FiM by the Fe count
      (0 / 1 / even / odd >= 3)
    * formation energy = sum_e f_e E_e + 0.02 (k - 1)(v - 12)
    * bandgap = 0 for metals, else max(0, sum_e f_e G_e - 0.04 (v - 10))
    * energy above hull = 0.1 (1 - cos(2 pi v / 9))
    * stable <- hull energy <= 0.02; observed <- hull energy <= 0.05
    * direct gap <- non-metal with bandgap > 1.2
    """
    counts = Counter(structure.species)
    n = structure.n_atoms
    v = structure.volume / n
    k = len(counts)
    fracs = {el: c / n for el, c in counts.items()}

    is_metal = "Fe" in counts or ("Ga" in counts and "N" not in counts)
    is_magnetic = "Fe" in counts
    n_fe = counts.get("Fe", 0)
    if n_fe == 0:
        order = "NM"
    elif n_fe == 1:
        order = "FM"
    elif n_fe % 2 == 0:
        order = "AFM"
    else:
        order = "FiM"

    formation = sum(f * FORMATION_EV[el] for el, f in sorted(fracs.items()))
    formation += 0.02 * (k - 1) * (v - 12.0)
    if is_metal:
        gap = 0.0
    else:
        gap = max(0.0, sum(f * GAP_EV[el] for el, f in sorted(fracs.items()))
                  - 0.04 * (v - 10.0))
    e_hull = 0.1 * (1.0 - math.cos(2.0 * math.pi * v / 9.0))
    return {
        "reduced_formula": reduced_formula(structure.species),
        "is_metal": is_metal,
        "is_magnetic": is_magnetic,
        "magnetic_order": order,
        "formation_energy": formation,
        "bandgap": gap,
        "energy_above_hull": e_hull,
        "is_stable": e_hull <= 0.02,
        "is_experimentally_observed": e_hull <= 0.05,
        "is_direct_bandgap": (not is_metal) and gap > 1.2,
    }


def _lattice_for_system(system, rng):
    """Unit-scale lattice rows conforming to the named crystal system."""
    if system == "cubic":
        return np.eye(3)
    if system == "tetragonal":
        c = rng.uniform(1.15, 1.8)
        return np.diag([1.0, 1.0, c])
    if system == "orthorhombic":
        return np.diag([1.0, rng.uniform(1.15, 1.6), rng.uniform(1.7, 2.2)])
    if system == "hexagonal":
        c = rng.uniform(1.2, 1.9)
        return np.array(
            [[1.0, 0.0, 0.0], [-0.5, np.sqrt(3.0) / 2.0, 0.0], [0.0, 0.0, c]]
        )
    if system == "trigonal":
        alpha = np.deg2rad(rng.uniform(70.0, 85.0))
        # rhombohedral cell: three unit vectors with equal pairwise angles
        c = np.cos(alpha)
        m = np.full((3, 3), c) + np.eye(3) * (1.0 - c)
        return np.linalg.cholesky(m).T
    if system == "monoclinic":
        beta = np.deg2rad(rng.uniform(95.0, 120.0))
        return np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, rng.uniform(1.1, 1.5), 0.0],
                [np.cos(beta), 0.0, np.sin(beta)],
            ]
        ) * np.array([1.0, 1.0, rng.uniform(1.5, 2.0)])[:, None]
    if system == "triclinic":
        while True:
            lat = rng.uniform(-0.4, 0.4, (3, 3)) + np.diag([1.0, 1.2, 1.5])
            if np.linalg.det(lat) > 0.3:
                return lat
    raise ContractError(f"unknown crystal system {system!r}")


def generate_synthetic_records(seed, n):
    """Deterministic synthetic corpus of ``n`` property records."""
    if n < 1:
        raise ContractError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(int(seed))
    records = []
    for i in range(n):
        system = CRYSTAL_SYSTEMS[rng.integers(len(CRYSTAL_SYSTEMS))]
        k = int(rng.integers(1, 4))
        elements = list(rng.choice(ELEMENT_POOL, size=k, replace=False))
        species = []
        for el in elements:
            species.extend([el] * int(rng.integers(1, 4)))
        rng.shuffle(species)
        n_atoms = len(species)

        lat = _lattice_for_system(system, rng)
        v_per_atom = rng.uniform(6.0, 24.0)
        lat = lat * (v_per_atom * n_atoms / np.linalg.det(lat)) ** (1.0 / 3.0)
        frac = rng.random((n_atoms, 3))
        structure = Structure(
            material_id=f"sm-{seed}-{i:06d}",
            lattice=lat,
            species=species,
            frac_coords=frac,
        )
        labels = synthetic_labels(structure)
        groups = SPACE_GROUPS[system]
        space_group = groups[(n_atoms + k) % len(groups)]
        records.append(
            PropertyRecord(
                material_id=structure.material_id,
                structure=structure,
                space_group=space_group,
                crystal_system=system,
                **labels,
            )
        )
    return records


# -- record IO and validation ------------------------------------------------

_BOOL_FIELDS = (
    "is_metal", "is_direct_bandgap", "is_stable",
    "is_experimentally_observed", "is_magnetic",
)
_FLOAT_FIELDS = ("formation_energy", "energy_above_hull", "bandgap")


def validate_record(r):
    """Raise ValidationError on the first violated record invariant."""
    for f in _BOOL_FIELDS:
        if not isinstance(getattr(r, f), bool):
            raise ValidationError(f"{f} must be boolean")
    for f in _FLOAT_FIELDS:
        val = getattr(r, f)
        if not (isinstance(val, float) and math.isfinite(val)):
            raise ValidationError(f"{f} must be a finite float")
    if r.energy_above_hull < 0:
        raise ValidationError("energy_above_hull must be >= 0")
    if r.bandgap < 0:
        raise ValidationError("bandgap must be >= 0")
    if r.is_metal and r.bandgap != 0.0:
        raise ValidationError("metals must have zero bandgap")
    if r.magnetic_order not in MAGNETIC_ORDERS:
        raise ValidationError(f"magnetic_order {r.magnetic_order!r} not in enum")
    if r.crystal_system not in CRYSTAL_SYSTEMS:
        raise ValidationError(f"crystal_system {r.crystal_system!r} not in enum")
    if not r.reduced_formula:
        raise ValidationError("reduced_formula must be nonempty")


def record_to_dict(r):
    return {
        "material_id": r.material_id,
        "structure": structure_to_dict(r.structure),
        "reduced_formula": r.reduced_formula,
        "space_group": r.space_group,
        "crystal_system": r.crystal_system,
        "is_metal": r.is_metal,
        "is_direct_bandgap": r.is_direct_bandgap,
        "is_stable": r.is_stable,
        "is_experimentally_observed": r.is_experimentally_observed,
        "is_magnetic": r.is_magnetic,
        "magnetic_order": r.magnetic_order,
        "formation_energy": r.formation_energy,
        "energy_above_hull": r.energy_above_hull,
        "bandgap": r.bandgap,
    }


def record_from_dict(obj):
    fields = dict(obj)
    if "structure" not in fields:
        raise ValidationError("record JSON missing key 'structure'")
    structure = structure_from_dict(fields.pop("structure"))
    rec = PropertyRecord(structure=structure, **fields)
    validate_record(rec)
    return rec


def write_property_records(path, records):
    write_jsonl(path, (record_to_dict(r) for r in records))


def load_property_records(path):
    """Validated records from a JSON-lines file; errors are itemized."""
    problems = []
    records = []
    seen = {}
    for lineno, rec in load_jsonl(path, record_from_dict):
        if rec.material_id in seen:
            problems.append(
                f"line {lineno}: duplicate material_id {rec.material_id!r} "
                f"(first on line {seen[rec.material_id]})"
            )
            continue
        seen[rec.material_id] = lineno
        records.append(rec)
    if problems:
        raise ValidationError("; ".join(problems))
    return records


# -- instruction rendering ---------------------------------------------------


def render_sample(record, task, instr_idx, ans_idx):
    prompt = render_prompt(task, instr_idx)
    answer = render_answer(record, task, ans_idx)
    return InstructionSample(
        material_id=record.material_id,
        task=task,
        prompt=prompt,
        answer=answer,
        numeric_target=numeric_target(record, task),
    )


def build_instruction_corpus(records, seed):
    """One sample per record per task, template indices drawn from ``seed``."""
    rng = np.random.default_rng(int(seed))
    samples = []
    for rec in records:
        for task in TASKS:
            group = get_templates(task)
            instr_idx = int(rng.integers(len(group.instructions)))
            ans_idx = int(rng.integers(len(group.answers)))
            samples.append(render_sample(rec, task, instr_idx, ans_idx))
    return samples


def sample_to_dict(s):
    out = {
        "material_id": s.material_id,
        "task": s.task,
        "prompt": s.prompt,
        "answer": s.answer,
    }
    if s.numeric_target is not None:
        out["numeric_target"] = s.numeric_target
    return out


def sample_from_dict(obj):
    missing = {"material_id", "task", "prompt", "answer"} - set(obj)
    if missing:
        raise ValidationError(f"sample JSON missing keys: {sorted(missing)}")
    return InstructionSample(
        material_id=obj["material_id"],
        task=obj["task"],
        prompt=obj["prompt"],
        answer=obj["answer"],
        numeric_target=obj.get("numeric_target"),
    )


def write_instruction_samples(path, samples):
    write_jsonl(path, (sample_to_dict(s) for s in samples))


def load_instruction_samples(path):
    """Samples from a JSON-lines file; errors are itemized."""
    return [s for _, s in load_jsonl(path, sample_from_dict)]


# -- splitting ---------------------------------------------------------------


def split_dataset(items, seed):
    """Seeded 9:1 shuffle split: train gets floor(0.9 N), test the rest."""
    n = len(items)
    if n < 10:
        raise ContractError(f"need at least 10 items to split, got {n}")
    perm = np.random.default_rng(int(seed)).permutation(n)
    n_train = (9 * n) // 10
    train = [items[i] for i in perm[:n_train]]
    test = [items[i] for i in perm[n_train:]]
    return train, test
