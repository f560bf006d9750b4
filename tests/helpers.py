"""Independent oracles, generators and a collector pause for the tests.

These deliberately re-derive results by a different route than the
package (scalar loops, wider enumeration margins, one tape for a whole
training micro-batch) so agreement is evidence, not tautology.
"""

import contextlib
import gc
import itertools

import numpy as np

from matterbridge import trainer as tr
from matterbridge.bridge import bridge_forward, match_score, text_logits
from matterbridge.crystal import Structure
from matterbridge.objectives import (association_loss, contrastive_loss,
                                     finetune_loss, hard_negative_sample,
                                     lm_token_loss, sim_matrix)
from matterbridge.tensor import Tensor, concat, gelu


def supercell_neighbor_list(s, cutoff):
    """Brute-force neighbor enumeration over an oversized supercell.

    Scalar loop over every atom pair and every image cell in a box one
    shell larger than strictly needed; returns a sorted list of
    (i, j, (m0, m1, m2), distance).
    """
    lat = np.asarray(s.lattice, dtype=float)
    cart = s.frac_coords @ lat
    n = len(cart)
    inv = np.linalg.inv(lat)
    bound = np.floor(cutoff * np.linalg.norm(inv, axis=0) + 1.0).astype(int) + 1

    found = []
    for m in itertools.product(
        range(-bound[0], bound[0] + 1),
        range(-bound[1], bound[1] + 1),
        range(-bound[2], bound[2] + 1),
    ):
        shift = m[0] * lat[0] + m[1] * lat[1] + m[2] * lat[2]
        for i in range(n):
            for j in range(n):
                if i == j and m == (0, 0, 0):
                    continue
                delta = cart[j] + shift - cart[i]
                d = float(np.sqrt(delta @ delta))
                if d <= cutoff:
                    found.append((i, j, m, d))
    found.sort(key=lambda rec: (rec[0], rec[1], rec[2]))
    return found


def random_structure(rng, n_min=1, n_max=8):
    """Random triclinic cell with determinant bounded away from zero."""
    while True:
        lat = rng.uniform(-2.0, 2.0, (3, 3)) + np.diag(rng.uniform(2.5, 4.0, 3))
        det = np.linalg.det(lat)
        if det < 0:
            lat[[0, 1]] = lat[[1, 0]]
            det = -det
        if det > 3.0:
            break
    n = int(rng.integers(n_min, n_max + 1))
    species = list(rng.choice(["Si", "C", "O", "Fe", "Ga", "N"], size=n))
    frac = rng.random((n, 3))
    return Structure(
        material_id=f"rand-{rng.integers(1 << 30)}",
        lattice=lat,
        species=species,
        frac_coords=frac,
    )


@contextlib.contextmanager
def collector_paused():
    """Run the block with Python's cyclic garbage collector off and no
    cyclic garbage left from before, so ``gc.collect()`` inside it counts
    only the cycles the block made.  GELU runs once first: its first call
    imports scipy, which leaves cyclic garbage once per process."""
    gelu(Tensor(np.zeros(1)))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        yield
    finally:
        if was_enabled:
            gc.enable()


def joint_pretrain_loss(batch, models, cfg, neg_seed):
    """One pretraining micro-batch's loss as one tensor, and its parts.

    Every bridge pass of the batch stays on one tape until ``backward``
    on the returned total, the formulation the trainer's streaming
    ``_pretrain_micro_step`` must match bit for bit.
    """
    vocab = models.vocab
    n = len(batch)
    query_feats, text_feats, pred_losses = [], [], []
    for atoms, ids in batch:
        out = bridge_forward(atoms, ids, "correlation", models.bridge)
        query_feats.append(out["query_out"])
        text_feats.append(out["text_out"][0:1])
        pred = bridge_forward(atoms, ids, "prediction", models.bridge)
        logits = text_logits(pred["text_out"], models.bridge)
        targets = np.array(ids[1:] + [vocab.eos_id], dtype=np.int64)
        pred_losses.append(lm_token_loss(logits, targets))
    loss_pred = sum(pred_losses[1:], pred_losses[0])
    sim_tensor = sim_matrix(query_feats, concat(text_feats, axis=0))
    loss_con = contrastive_loss(sim_tensor, tau=cfg.tau,
                                symmetric=cfg.symmetric_contrastive)
    sims = sim_tensor.data
    if n < 2:
        loss_assoc = Tensor(np.zeros(()))
    elif not np.all(np.isfinite(sims)):
        loss_assoc = Tensor(np.full((), np.nan))
    else:
        text_negs, graph_negs = hard_negative_sample(sims, neg_seed)
        triples = ([(i, i, 1.0) for i in range(n)]
                   + [(i, text_negs[i], 0.0) for i in range(n)]
                   + [(graph_negs[i], i, 0.0) for i in range(n)])
        scores = []
        for g, t, _ in triples:
            out = bridge_forward(batch[g][0], batch[t][1], "association",
                                 models.bridge)
            scores.append(match_score(out["query_out"], models.bridge)
                          .reshape((1,)))
        loss_assoc = association_loss(concat(scores),
                                      np.array([y for _, _, y in triples]))
    total = loss_con + loss_pred + loss_assoc
    return total, (float(loss_con.data), float(loss_pred.data),
                   float(loss_assoc.data))


def joint_pretrain_step(batch, models, cfg, neg_seed):
    """``_pretrain_micro_step``'s contract through the joint oracle: one
    backward, then the loss and parts as floats."""
    total, parts = joint_pretrain_loss(batch, models, cfg, neg_seed)
    total.backward()
    return float(total.data), parts


def joint_finetune_step(micro, models, n_micro):
    """``_finetune_micro_step``'s contract through one tape over every
    sample of the micro-batch: the mean loss times 1 / n_micro."""
    terms = [tr._finetune_sample_terms(e, models) for e in micro]
    loss = finetune_loss(terms) * (1.0 / n_micro)
    loss.backward()
    return float(loss.data), (float("nan"),) * 3
