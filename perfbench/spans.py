"""In-memory spans around the public functions of matterbridge's modules.

A `Tracer` wraps functions from outside the program.  `cli`, `evaluate`,
`rag`, `trainer` and others import these functions by name, so each
wrapper replaces the original in every ``matterbridge`` module namespace
that holds it, and `Tracer.uninstall` puts every original back.

Each span records its name, start, end, parent span and the request id
that was current when it opened.  Spans stay in memory until the run
ends; `layer_metrics` turns them into the per-layer numbers and
`write_jsonl` writes them out.
"""

import functools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    rid: int
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    failed: bool = False
    counts: dict = field(default_factory=dict)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _store_files(directory):
    return (os.path.join(directory, "store.bin"),
            os.path.join(directory, "store.json"))


# Work counts taken at a span's boundary: fn(args, kwargs, result) -> dict.
def _count_positions(args, kwargs, result):
    prefix = _arg(args, kwargs, 0, "prefix_embs")
    n_prefix = 0 if prefix is None else prefix.shape[0]
    return {"positions": n_prefix + len(_arg(args, kwargs, 1, "token_ids"))}


# A classmethod wrapper sees cls and a method wrapper self as args[0].
def _count_store_load(args, kwargs, result):
    directory = _arg(args, kwargs, 1, "directory")
    return {"bytes": _file_bytes(*_store_files(directory)),
            "rows": len(result)}


def _count_store_save(args, kwargs, result):
    return {"bytes": _file_bytes(*_store_files(result)), "rows": len(args[0])}


# (module, attribute, span name, counter).  The span name of
# bridge_forward carries its mode, so one attribute yields four layers.
TARGETS = (
    ("tensor", "Tensor.backward", "tensor.backward", None),
    ("objectives", "contrastive_loss", "objectives.contrastive_loss", None),
    ("objectives", "lm_token_loss", "objectives.lm_token_loss", None),
    ("objectives", "association_loss", "objectives.association_loss", None),
    ("objectives", "finetune_loss", "objectives.finetune_loss", None),
    ("bridge", "bridge_forward", "bridge.forward", None),
    ("lm", "lm_forward", "lm.lm_forward", _count_positions),
    ("lm", "generate_greedy", "lm.generate_greedy", None),
    ("crystal", "build_graph", "crystal.build_graph",
     lambda a, k, r: {"edges": r.n_edges}),
    ("crystal", "neighbor_list_pbc", "crystal.neighbor_list_pbc", None),
    ("encoder", "encode_atoms", "encoder.encode_atoms",
     lambda a, k, r: {"atoms": r.shape[0]}),
    ("trainer", "adamw_step", "trainer.adamw_step", None),
    ("trainer", "save_checkpoint", "trainer.save_checkpoint",
     lambda a, k, r: {"bytes": _file_bytes(r)}),
    ("trainer", "load_checkpoint", "trainer.load_checkpoint",
     lambda a, k, r: {"bytes": _file_bytes(_arg(a, k, 0, "path"))}),
    ("trainer", "restore_models", "trainer.restore_models", None),
    ("datasetgen", "load_property_records",
     "datasetgen.load_property_records",
     lambda a, k, r: {"records": len(r)}),
    ("rag", "embed_material", "rag.embed_material", None),
    ("rag", "retrieve_topk", "rag.retrieve_topk", None),
    ("rag", "EmbeddingStore.load", "rag.EmbeddingStore.load",
     _count_store_load),
    ("rag", "EmbeddingStore.save", "rag.EmbeddingStore.save",
     _count_store_save),
    ("evaluate", "generate_answer", "evaluate.generate_answer", None),
    ("evaluate", "parse_answer_value", "evaluate.parse_answer_value", None),
    ("soap", "soap_descriptor", "soap.soap_descriptor",
     lambda a, k, r: {"atoms": r.shape[0]}),
    ("rematch", "rematch_score", "rematch.rematch_score", None),
    ("rematch", "sinkhorn_transport", "rematch.sinkhorn_transport", None),
    ("cli", "cmd_pretrain", "cli.pretrain", None),
    ("cli", "cmd_finetune", "cli.finetune", None),
    ("cli", "cmd_embed", "cli.embed", None),
    ("cli", "cmd_infer", "cli.infer", None),
    ("cli", "cmd_similarity", "cli.similarity", None),
)

BRIDGE_MODES = ("correlation", "prediction", "association", "inference")


def span_names():
    names = []
    for _, _, name, _ in TARGETS:
        if name == "bridge.forward":
            names.extend(f"bridge.forward.{m}" for m in BRIDGE_MODES)
        else:
            names.append(name)
    return names


class Tracer:
    """Records nested spans for the functions it has wrapped."""

    def __init__(self):
        self.spans = []
        self.rid = 0
        self._stack = []
        self._undo = []

    def wrap(self, fn, name, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "bridge.forward":
                span_name = f"{name}.{_arg(args, kwargs, 2, 'mode')}"
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(tracer.rid, span_name, time.perf_counter(),
                        parent=parent)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target in every matterbridge namespace holding it."""
        import matterbridge.cli  # noqa: F401  loads every traced module

        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "matterbridge" or n.startswith("matterbridge.")]
        for module_name, attr, name, counter in TARGETS:
            owner = sys.modules[f"matterbridge.{module_name}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, name, counter))
                self._replace(owner, leaf, raw, wrapped)
                continue
            wrapped = self.wrap(raw, name, counter)
            if path:
                self._replace(owner, leaf, raw, wrapped)
                continue
            for ns in namespaces:
                if ns.__dict__.get(leaf) is raw:
                    self._replace(ns, leaf, raw, wrapped)

    def _replace(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def write_jsonl(spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans):
    """Per span: its duration minus the part its child spans cover.

    Children are clipped to the parent's interval and their union is
    measured, so overlapping children are not subtracted twice.
    """
    children = {}
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted((max(spans[c].start, span.start),
                              min(spans[c].end, span.end))
                             for c in children.get(i, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _decode_steps(spans):
    """lm_forward calls made by generate_greedy: one per decoded symbol."""
    return sum(1 for s in spans if s.name == "lm.lm_forward"
               and s.parent >= 0 and spans[s.parent].name == "lm.generate_greedy")


def _neighbor_parses(spans):
    """(neighbour decodes, of them parsed, neighbour decodes skipped).

    In each `infer` request the first answer parsed is the material's
    own; the rest are its neighbours.  When the own answer fails to
    parse the command skips the neighbour decodes.
    """
    by_request = {}
    for span in spans:
        if span.name == "evaluate.parse_answer_value":
            by_request.setdefault(span.rid, []).append(span)
    infer_rids = {s.rid for s in spans if s.name == "cli.infer"}
    decodes = parsed = skipped = 0
    for rid, parses in by_request.items():
        if rid not in infer_rids:
            continue
        own, neighbors = parses[0], parses[1:]
        if own.failed:
            skipped += 1
        decodes += len(neighbors)
        parsed += sum(1 for s in neighbors if not s.failed)
    return decodes, parsed, skipped


def layer_metrics(spans, samples, rag_k):
    """Per-layer metrics {name: (value, unit)} from one traced run.

    samples: infer calls the run made;
    rag_k: neighbours each infer call retrieves.
    """
    selfs = self_times(spans)
    out = {}
    for name in span_names():
        picked = [(s, st) for s, st in zip(spans, selfs) if s.name == name]
        out[f"{name}.calls"] = (len(picked), "count")
        out[f"{name}.s"] = (sum(s.end - s.start for s, _ in picked), "s")
        out[f"{name}.self_s"] = (sum(st for _, st in picked), "s")

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def ratio(num, den):
        return num / den if den else 0.0

    def failures(name):
        return sum(1 for s in spans if s.name == name and s.failed)

    symbols = _decode_steps(spans)
    atoms = total("soap.soap_descriptor", "atoms")
    rows = [s.counts.get("rows", 0) for s in spans
            if s.name.startswith("rag.EmbeddingStore.")]
    decodes, parsed, skipped = _neighbor_parses(spans)
    out.update({
        "lm.lm_forward.positions":
            (total("lm.lm_forward", "positions"), "count"),
        "lm.symbols": (symbols, "count"),
        "lm.ms_per_symbol":
            (ratio(1e3 * out["lm.generate_greedy.s"][0], symbols), "ms"),
        "crystal.build_graph.edges":
            (total("crystal.build_graph", "edges"), "count"),
        "encoder.encode_atoms.atoms":
            (total("encoder.encode_atoms", "atoms"), "count"),
        "trainer.save_checkpoint.bytes":
            (total("trainer.save_checkpoint", "bytes"), "B"),
        "trainer.load_checkpoint.bytes":
            (total("trainer.load_checkpoint", "bytes"), "B"),
        "datasetgen.load_property_records.records":
            (total("datasetgen.load_property_records", "records"), "count"),
        "rag.store_rows": (max(rows, default=0), "count"),
        "rag.EmbeddingStore.load.bytes":
            (total("rag.EmbeddingStore.load", "bytes"), "B"),
        "rag.EmbeddingStore.save.bytes":
            (total("rag.EmbeddingStore.save", "bytes"), "B"),
        "rag.neighbor_parse_share": (ratio(parsed, decodes), "share"),
        "rag.neighbor_decodes_skipped": (skipped * rag_k, "count"),
        "evaluate.parse_answer_value.failures":
            (failures("evaluate.parse_answer_value"), "count"),
        "evaluate.decodes_per_sample":
            (ratio(out["evaluate.generate_answer.calls"][0], samples),
             "ratio"),
        "soap.soap_descriptor.atoms": (atoms, "count"),
        "soap.ms_per_atom":
            (ratio(1e3 * out["soap.soap_descriptor.s"][0], atoms), "ms"),
        "rematch.sinkhorn_transport.failures":
            (failures("rematch.sinkhorn_transport"), "count"),
    })
    return out
