"""Training schedules, ablation variants, checkpoints, and run reports.

One TrainingRun owns the whole pipeline: split assignment, per-dimension
standardization over the train split, encoder training on the relaxed
pairwise loss, and (for the merging variants) alternating rounds of

    active phase   (n0 epochs)  learn the bit-redundancy adjacency;
                                backbone parameters do not move
    truncation                  snap the strongest edges, merge bit groups
    frozen phase   (n1 epochs)  keep training the encoder through the
                                merged outputs at the reduced code length

until the effective code length reaches b_out.  The stack of merge rounds
is represented by one cumulative partition of the original output bits;
each new round treats the current groups as single nodes.

Every stochastic step draws from one seeded generator, so a run is a pure
function of (config, dataset); reports serialize to byte-identical JSON on
reruns, and a checkpoint resumed mid-schedule finishes with the same
report as an uninterrupted run.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .data import (FeatureDataset, ROLE_QUERY, ROLE_TRAIN, ROLE_VALIDATION,
                   assign_splits, build_similarity, standardize)
from .errors import CheckpointError, ConfigError
from .losses import relaxed_hash_loss, relaxed_hash_loss_grad
from .merging import (MergeGraph, active_grad, active_loss,
                      apply_active_step, apply_choices, draw_choices,
                      eval_forward, frozen_grads, frozen_loss,
                      groups_after_truncation, propagate_scores,
                      score_neurons, truncate)
from .metrics import (mean_average_precision, precision_at_hamming_radius)
from .network import HashNet, SgdConfig, backward, forward, init_network, sgd_step

VARIANT_FULL = "full"
VARIANT_BASELINE = "baseline"
VARIANT_RANDOM = "random"
VARIANT_SELECT = "select"
VARIANT_DROPOUT = "dropout"
VARIANT_FCLAYER = "fclayer"
VARIANTS = (VARIANT_FULL, VARIANT_BASELINE, VARIANT_RANDOM, VARIANT_SELECT,
            VARIANT_DROPOUT, VARIANT_FCLAYER)

SCHEMA_VERSION = 1

_STAGE_BASE = "base"
_STAGE_ACTIVE = "active"
_STAGE_FROZEN = "frozen"
_STAGE_SCORE = "score"
_STAGE_FC = "fc"
_STAGE_DONE = "done"


@dataclass
class ExperimentConfig:
    """Everything a run depends on besides the dataset.

    b_in is the encoder's output width; merging variants shrink it to
    b_out.  n0/n1 are active/frozen epochs per round.  n_validation and
    n_query default to min(500, n_items // 10) when left unset.
    score_every thins active-phase scoring to every s-th minibatch.
    """

    b_in: int = 60
    b_out: int = 24
    m: int = 4
    n0_epochs: int = 5
    n1_epochs: int = 40
    base_epochs: int = 30
    batch_size: int = 128
    backbone_sgd: SgdConfig = field(default_factory=SgdConfig)
    nm_learning_rate: float = 1e-2
    eta: float = 1200.0
    seed: int = 0
    variant: str = VARIANT_FULL
    dropout_rate: float = 0.5
    hidden_dims: tuple[int, ...] = (256,)
    n_validation: int | None = None
    n_query: int | None = None
    score_every: int = 1

    def __post_init__(self):
        self.hidden_dims = tuple(int(d) for d in self.hidden_dims)
        if isinstance(self.backbone_sgd, dict):
            self.backbone_sgd = SgdConfig(**self.backbone_sgd)
        self.validate()

    def validate(self):
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if not 1 <= self.b_out <= self.b_in:
            raise ConfigError(
                f"need b_in >= b_out >= 1, got b_in={self.b_in} "
                f"b_out={self.b_out}"
            )
        if self.variant == VARIANT_BASELINE and self.b_in != self.b_out:
            raise ConfigError(
                "baseline trains at a single width; set b_in == b_out"
            )
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        for name in ("n0_epochs", "n1_epochs", "base_epochs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.variant == VARIANT_SELECT and self.n0_epochs < 1:
            raise ConfigError("select variant needs n0_epochs >= 1 to score bits")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.nm_learning_rate <= 0:
            raise ConfigError("nm_learning_rate must be > 0")
        if self.eta < 0:
            raise ConfigError(f"eta must be >= 0, got {self.eta}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(
                f"dropout_rate must be in [0, 1), got {self.dropout_rate}"
            )
        if self.variant == VARIANT_DROPOUT and not self.hidden_dims:
            raise ConfigError("dropout variant needs at least one hidden layer")
        if any(d < 1 for d in self.hidden_dims):
            raise ConfigError(f"hidden sizes must be >= 1, got {self.hidden_dims}")
        if self.score_every < 1:
            raise ConfigError(f"score_every must be >= 1, got {self.score_every}")
        for name in ("n_validation", "n_query"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigError(f"{name} must be >= 0 when given")

    def resolved_split_sizes(self, n_items: int) -> tuple[int, int]:
        """(n_validation, n_query) with defaults filled from the dataset size."""
        n_val = self.n_validation if self.n_validation is not None \
            else min(500, n_items // 10)
        n_query = self.n_query if self.n_query is not None \
            else min(500, n_items // 10)
        return n_val, n_query

    def needs_validation(self) -> bool:
        return self.variant in (VARIANT_FULL, VARIANT_SELECT)

    def encoder_width(self) -> int:
        return self.b_out if self.variant == VARIANT_DROPOUT else self.b_in

    def planned_merge_rounds(self) -> int:
        if self.b_in == self.b_out:
            return 0
        return math.ceil((self.b_in - self.b_out) / self.m)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden_dims"] = list(self.hidden_dims)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        d["hidden_dims"] = tuple(d.get("hidden_dims", (256,)))
        return cls(**d)


@dataclass
class RunReport:
    """Everything a finished run reports; serializes to stable JSON."""

    variant: str
    seed: int
    config: dict
    epochs_total: int
    base: dict
    rounds: list[dict]
    bit_trace: list[list]
    groups: list[list[int]]
    final: dict
    leave_one_out: dict | None
    selected_bits: list[int] | None = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        bits = [int(b) for b, _ in self.bit_trace]
        if any(b2 > b1 for b1, b2 in zip(bits, bits[1:])):
            raise ValueError(f"bit trace must be nonincreasing, got {bits}")

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "variant": self.variant,
            "seed": self.seed,
            "config": self.config,
            "epochs_total": self.epochs_total,
            "base": self.base,
            "rounds": self.rounds,
            "bit_trace": [[int(b), float(v)] for b, v in self.bit_trace],
            "groups": [list(map(int, g)) for g in self.groups],
            "final": self.final,
            "leave_one_out": self.leave_one_out,
            "selected_bits": self.selected_bits,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported report schema {d.get('schema_version')!r}"
            )
        return cls(variant=d["variant"], seed=d["seed"], config=d["config"],
                   epochs_total=d["epochs_total"], base=d["base"],
                   rounds=d["rounds"], bit_trace=d["bit_trace"],
                   groups=d["groups"], final=d["final"],
                   leave_one_out=d["leave_one_out"],
                   selected_bits=d.get("selected_bits"))

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))


CHECKPOINT_MAGIC = "HMRG1"
CHECKPOINT_VERSION = 2


@dataclass
class Checkpoint:
    """Resumable snapshot of a run at an epoch boundary.

    dataset_sha256 fingerprints the run's standardized features, label sets
    and splits; a run restores only against the dataset it was written for.
    """

    config: ExperimentConfig
    net: HashNet
    graph: MergeGraph
    counters: dict
    rng_state: dict
    progress: dict
    dataset_sha256: str


def _encode_array(a: np.ndarray) -> dict:
    buf = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape),
            "data": base64.b64encode(buf.tobytes()).decode("ascii")}


def _decode_array(d: dict) -> np.ndarray:
    raw = np.frombuffer(base64.b64decode(d["data"]), dtype="<f8")
    return raw.reshape(d["shape"]).astype(np.float64)


def _maybe_encode(a):
    return None if a is None else _encode_array(np.asarray(a, dtype=np.float64))


def _maybe_decode(d):
    return None if d is None else _decode_array(d)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write magic line + JSON body; float buffers are base64, bit-exact."""
    body = {
        "format_version": CHECKPOINT_VERSION,
        "config": ckpt.config.to_dict(),
        "net": {
            "layer_dims": list(ckpt.net.layer_dims),
            "hidden_activation": ckpt.net.hidden_activation,
            "weights": [_encode_array(w) for w in ckpt.net.weights],
            "biases": [_encode_array(b) for b in ckpt.net.biases],
        },
        "graph": {
            "n_nodes": ckpt.graph.n_nodes,
            "groups": [list(map(int, g)) for g in ckpt.graph.groups],
        },
        "counters": ckpt.counters,
        "rng_state": ckpt.rng_state,
        "progress": ckpt.progress,
        "dataset_sha256": ckpt.dataset_sha256,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CHECKPOINT_MAGIC + "\n")
        json.dump(body, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> Checkpoint:
    with open(path, "r", encoding="utf-8") as fh:
        magic = fh.readline().rstrip("\r\n")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(
                f"not a checkpoint: expected magic {CHECKPOINT_MAGIC!r}, "
                f"got {magic!r}"
            )
        try:
            body = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"corrupt checkpoint body: {exc}") from None
    version = body.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} "
            f"(this build reads {CHECKPOINT_VERSION})"
        )
    cfg = ExperimentConfig.from_dict(body["config"])
    net_d = body["net"]
    net = HashNet(tuple(net_d["layer_dims"]),
                  [_decode_array(w) for w in net_d["weights"]],
                  [_decode_array(b) for b in net_d["biases"]],
                  net_d["hidden_activation"])
    graph = MergeGraph.from_partition(body["graph"]["n_nodes"],
                                      body["graph"]["groups"])
    return Checkpoint(cfg, net, graph, body["counters"], body["rng_state"],
                      body["progress"], body["dataset_sha256"])


def _singletons(n: int) -> MergeGraph:
    return MergeGraph.from_partition(n, [[i] for i in range(n)])


def leave_one_out(query_codes, query_labels, gallery_codes,
                  gallery_labels) -> tuple[np.ndarray, float]:
    """Per-bit MAP with that bit deleted, and the spread of those values.

    Scores query codes against gallery codes; needs at least 2 effective
    bits.
    """
    if np.shape(query_codes)[1] < 2:
        raise ConfigError("leave-one-out needs at least 2 effective bits")
    p = score_neurons(gallery_codes, gallery_labels, query_codes, query_labels)
    return p, float(p.std())


class TrainingRun:
    """Stateful, resumable training driver.

    run(stop_after=k) advances whole epochs until the schedule ends or the
    global epoch counter reaches k; to_checkpoint()/from_checkpoint()
    round-trip the state between run() calls.
    """

    def __init__(self, cfg: ExperimentConfig, dataset: FeatureDataset,
                 _restore: Checkpoint | None = None):
        cfg.validate()
        self.cfg = cfg
        seq = np.random.SeedSequence(cfg.seed)
        s_split, s_init, s_loop, s_head = seq.spawn(4)

        n_val, n_query = cfg.resolved_split_sizes(dataset.n_items)
        if (dataset.roles == ROLE_TRAIN).all():
            dataset = assign_splits(dataset, n_val, n_query, s_split)
        ds = standardize(dataset)
        self.train_idx = ds.indices(ROLE_TRAIN)
        self.val_idx = ds.indices(ROLE_VALIDATION)
        self.query_idx = ds.indices(ROLE_QUERY)
        if self.query_idx.size == 0:
            raise ConfigError("runs need a non-empty query split to report MAP")
        if cfg.needs_validation() and self.val_idx.size == 0:
            raise ConfigError(
                f"variant {cfg.variant!r} scores bits against a validation "
                "split; n_validation must be >= 1"
            )
        self.features = ds.features
        self.labels = ds.labels

        width = cfg.encoder_width()
        self.width = width
        self.fc_epochs = cfg.planned_merge_rounds() * cfg.n1_epochs \
            if cfg.variant == VARIANT_FCLAYER else 0

        if _restore is None:
            self.net = init_network(
                (ds.dim, *cfg.hidden_dims, width), s_init)
            self.graph = _singletons(width)
            self.rng = np.random.default_rng(s_loop)
            if cfg.variant == VARIANT_FCLAYER:
                head_rng = np.random.default_rng(s_head)
                bound = 1.0 / np.sqrt(cfg.b_in)
                self.fc_w = head_rng.uniform(-bound, bound,
                                             (cfg.b_in, cfg.b_out))
                self.fc_b = np.zeros(cfg.b_out)
            else:
                self.fc_w = self.fc_b = None
            self.stage = _STAGE_BASE
            self.round_index = 0
            self.epoch_in_stage = 0
            self.global_epoch = 0
            self.round_adjacency: np.ndarray | None = None
            self.base_loss_per_epoch: list[float] = []
            self.base_map: float | None = None
            self.rounds_done: list[dict] = []
            self.current_round: dict | None = None
            self.bit_trace: list[list] = []
            self.score_sum: np.ndarray | None = None
            self.score_batches = 0
            self.selected_bits: list[int] | None = None
            self._settle()
        else:
            self._restore_from(_restore)
        self._val_codes_cache: np.ndarray | None = None

    # -- state round trip ------------------------------------------------

    def to_checkpoint(self) -> Checkpoint:
        progress = {
            "base_loss_per_epoch": [float(v) for v in self.base_loss_per_epoch],
            "base_map": self.base_map,
            "rounds_done": self.rounds_done,
            "current_round": self.current_round,
            "bit_trace": [[int(b), float(v)] for b, v in self.bit_trace],
            "round_adjacency": _maybe_encode(self.round_adjacency),
            "score_sum": _maybe_encode(self.score_sum),
            "score_batches": self.score_batches,
            "fc_w": _maybe_encode(self.fc_w),
            "fc_b": _maybe_encode(self.fc_b),
            "selected_bits": self.selected_bits,
        }
        counters = {"stage": self.stage, "round_index": self.round_index,
                    "epoch_in_stage": self.epoch_in_stage,
                    "global_epoch": self.global_epoch}
        return Checkpoint(self.cfg, self.net.copy(), self.graph, counters,
                          self.rng.bit_generator.state, progress,
                          self._dataset_sha256())

    def _dataset_sha256(self) -> str:
        h = hashlib.sha256(
            np.ascontiguousarray(self.features, dtype="<f8").tobytes())
        h.update(json.dumps([list(self.features.shape),
                             [sorted(s) for s in self.labels],
                             self.train_idx.tolist(), self.val_idx.tolist(),
                             self.query_idx.tolist()]).encode("ascii"))
        return h.hexdigest()

    def _restore_from(self, ckpt: Checkpoint):
        self.net = ckpt.net.copy()
        self.graph = ckpt.graph
        self.rng = np.random.default_rng()
        self.rng.bit_generator.state = ckpt.rng_state
        c = ckpt.counters
        self.stage = c["stage"]
        self.round_index = c["round_index"]
        self.epoch_in_stage = c["epoch_in_stage"]
        self.global_epoch = c["global_epoch"]
        p = ckpt.progress
        self.base_loss_per_epoch = list(p["base_loss_per_epoch"])
        self.base_map = p["base_map"]
        self.rounds_done = [dict(r) for r in p["rounds_done"]]
        self.current_round = None if p["current_round"] is None \
            else dict(p["current_round"])
        self.bit_trace = [[int(b), float(v)] for b, v in p["bit_trace"]]
        self.round_adjacency = _maybe_decode(p["round_adjacency"])
        self.score_sum = _maybe_decode(p["score_sum"])
        self.score_batches = p["score_batches"]
        self.fc_w = _maybe_decode(p["fc_w"])
        self.fc_b = _maybe_decode(p["fc_b"])
        self.selected_bits = p["selected_bits"]

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint,
                        dataset: FeatureDataset) -> "TrainingRun":
        run = cls(ckpt.config, dataset, _restore=ckpt)
        if run._dataset_sha256() != ckpt.dataset_sha256:
            raise CheckpointError(
                "checkpoint was written for a different dataset: features, "
                "labels or splits differ"
            )
        return run

    # -- schedule --------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.stage == _STAGE_DONE

    def _stage_len(self) -> int:
        return {_STAGE_BASE: self.cfg.base_epochs,
                _STAGE_ACTIVE: self.cfg.n0_epochs,
                _STAGE_FROZEN: self.cfg.n1_epochs,
                _STAGE_SCORE: self.cfg.n0_epochs,
                _STAGE_FC: self.fc_epochs}[self.stage]

    def run(self, stop_after: int | None = None) -> "TrainingRun":
        while not self.done:
            if stop_after is not None and self.global_epoch >= stop_after:
                break
            self._run_one_epoch()
            self.global_epoch += 1
            self.epoch_in_stage += 1
            self._settle()
        return self

    def _settle(self):
        while self.stage != _STAGE_DONE \
                and self.epoch_in_stage >= self._stage_len():
            self._complete_stage()

    def _complete_stage(self):
        cfg = self.cfg
        if self.stage == _STAGE_BASE:
            self.base_map = self._map_eval()
            self.bit_trace.append([self.graph.n_groups, self.base_map])
            if cfg.variant in (VARIANT_FULL, VARIANT_RANDOM) \
                    and self.graph.n_groups > cfg.b_out:
                self._start_merge_round()
            elif cfg.variant == VARIANT_SELECT:
                self.score_sum = np.zeros(self.width)
                self.score_batches = 0
                self._enter(_STAGE_SCORE)
            elif cfg.variant == VARIANT_FCLAYER and self.fc_epochs > 0:
                self._enter(_STAGE_FC)
            elif cfg.variant == VARIANT_FCLAYER:
                self._collapse_fc_head()
                self._finalize()
            else:
                self._finalize()
        elif self.stage == _STAGE_ACTIVE:
            self._truncate_round()
            self._enter(_STAGE_FROZEN)
        elif self.stage == _STAGE_FROZEN:
            round_map = self._map_eval()
            self.current_round["map"] = round_map
            self.bit_trace.append([self.graph.n_groups, round_map])
            self.rounds_done.append(self.current_round)
            self.current_round = None
            if self.graph.n_groups > cfg.b_out:
                self._start_merge_round()
            else:
                self._finalize()
        elif self.stage == _STAGE_SCORE:
            self._apply_selection()
            self._finalize()
        elif self.stage == _STAGE_FC:
            self._collapse_fc_head()
            self._finalize()
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"cannot complete stage {self.stage!r}")

    def _enter(self, stage: str):
        self.stage = stage
        self.epoch_in_stage = 0

    def _finalize(self):
        self.stage = _STAGE_DONE
        self.epoch_in_stage = 0

    def _start_merge_round(self):
        self.round_index += 1
        k = self.graph.n_groups
        self.current_round = {"round": self.round_index, "bits_before": k,
                              "active_loss_per_epoch": [],
                              "hash_loss_per_epoch": [],
                              "frozen_loss_per_epoch": []}
        if self.cfg.variant == VARIANT_FULL:
            self.round_adjacency = np.zeros((k, k))
            self._val_codes_cache = None
            self._enter(_STAGE_ACTIVE)
        else:  # random: skip score learning, merge a random adjacency
            adj = np.zeros((k, k))
            iu = np.triu_indices(k, 1)
            adj[iu] = self.rng.random(iu[0].size)
            self.round_adjacency = adj + adj.T
            self._truncate_round()
            self._enter(_STAGE_FROZEN)

    def _truncate_round(self):
        """Merge via the round adjacency; m shrinks if it would overshoot b_out."""
        k = self.graph.n_groups
        need = k - self.cfg.b_out
        m_used = min(self.cfg.m, k * (k - 1) // 2)
        while m_used > 1:
            removed = k - len(groups_after_truncation(self.round_adjacency,
                                                      m_used))
            if removed <= need:
                break
            m_used -= 1
        self.graph = truncate(self.graph, self.round_adjacency, m_used)
        self.current_round["m_used"] = m_used
        self.current_round["bits_after"] = self.graph.n_groups
        self.round_adjacency = None
        self._val_codes_cache = None

    def _apply_selection(self):
        if self.score_batches == 0:
            raise ConfigError("bit selection ran zero scoring batches")
        scores = self.score_sum / self.score_batches
        # low leave-one-out MAP = removal hurts = important bit; keep those
        order = np.argsort(scores, kind="stable")
        keep = sorted(int(i) for i in order[:self.cfg.b_out])
        self.selected_bits = keep
        self.net.weights[-1] = self.net.weights[-1][:, keep].copy()
        self.net.biases[-1] = self.net.biases[-1][keep].copy()
        self.net.layer_dims = (*self.net.layer_dims[:-1], len(keep))
        self.width = len(keep)
        self.graph = _singletons(self.width)
        self.bit_trace.append([self.width, self._map_eval()])
        self.score_sum = None

    def _collapse_fc_head(self):
        """Two stacked affines with no nonlinearity fold into one."""
        self.net.weights[-1] = self.net.weights[-1] @ self.fc_w
        self.net.biases[-1] = self.net.biases[-1] @ self.fc_w + self.fc_b
        self.net.layer_dims = (*self.net.layer_dims[:-1], self.cfg.b_out)
        self.width = self.cfg.b_out
        self.graph = _singletons(self.width)
        self.fc_w = self.fc_b = None
        self.bit_trace.append([self.width, self._map_eval()])

    # -- epochs ----------------------------------------------------------

    def _run_one_epoch(self):
        if self.stage == _STAGE_BASE:
            rate = self.cfg.dropout_rate \
                if self.cfg.variant == VARIANT_DROPOUT else 0.0
            self._epoch_plain(rate)
        elif self.stage == _STAGE_ACTIVE:
            self._epoch_active()
        elif self.stage == _STAGE_FROZEN:
            self._epoch_frozen()
        elif self.stage == _STAGE_SCORE:
            self._epoch_score()
        elif self.stage == _STAGE_FC:
            self._epoch_fc()
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"cannot run epoch in stage {self.stage!r}")

    def _batches(self):
        order = self.rng.permutation(self.train_idx.size)
        bs = self.cfg.batch_size
        for start in range(0, order.size, bs):
            yield self.train_idx[order[start:start + bs]]

    def _batch_similarity(self, rows):
        labels = [self.labels[i] for i in rows]
        return labels, build_similarity(labels, labels)

    def _epoch_plain(self, dropout_rate: float):
        cfg = self.cfg
        total, batches = 0.0, 0
        for rows in self._batches():
            u, cache = forward(self.net, self.features[rows],
                               dropout_rate=dropout_rate,
                               rng=self.rng if dropout_rate > 0 else None)
            _, sim = self._batch_similarity(rows)
            k = u.shape[1]
            total += relaxed_hash_loss(u, sim, k, cfg.eta).total
            du = relaxed_hash_loss_grad(u, sim, k, cfg.eta)
            sgd_step(self.net, backward(self.net, cache, du), cfg.backbone_sgd)
            batches += 1
        self.base_loss_per_epoch.append(total / batches)

    def _val_codes(self) -> np.ndarray:
        # backbone is frozen while scoring, so cache per merge round
        if self._val_codes_cache is None:
            u, _ = forward(self.net, self.features[self.val_idx])
            self._val_codes_cache = eval_forward(self.graph, u)
        return self._val_codes_cache

    def _epoch_active(self):
        cfg = self.cfg
        val_codes = self._val_codes()
        val_labels = [self.labels[i] for i in self.val_idx]
        loss_sum, scored = 0.0, 0
        for b_index, rows in enumerate(self._batches()):
            if b_index % cfg.score_every != 0:
                continue
            codes = self._codes_for(rows)
            batch_labels = [self.labels[i] for i in rows]
            p = score_neurons(codes, batch_labels, val_codes, val_labels)
            pp = propagate_scores(p, self.round_adjacency)
            if not abs(pp.sum() - p.sum()) < 1e-9 * max(1.0, abs(p.sum())):
                raise ValueError(
                    f"active round {self.round_index}, epoch "
                    f"{self.epoch_in_stage}: score diffusion changed the "
                    f"score sum from {p.sum()!r} to {pp.sum()!r}"
                )
            loss_sum += active_loss(pp)
            self.round_adjacency = apply_active_step(
                self.round_adjacency, active_grad(p, pp), cfg.nm_learning_rate)
            scored += 1
        self.current_round["active_loss_per_epoch"].append(loss_sum / scored)

    def _epoch_score(self):
        cfg = self.cfg
        val_codes = self._val_codes()
        val_labels = [self.labels[i] for i in self.val_idx]
        for b_index, rows in enumerate(self._batches()):
            if b_index % cfg.score_every != 0:
                continue
            codes = self._codes_for(rows)
            batch_labels = [self.labels[i] for i in rows]
            self.score_sum += score_neurons(codes, batch_labels,
                                            val_codes, val_labels)
            self.score_batches += 1

    def _epoch_frozen(self):
        cfg = self.cfg
        k_eff = self.graph.n_groups
        hash_total, frozen_total, batches = 0.0, 0.0, 0
        for rows in self._batches():
            u, cache = forward(self.net, self.features[rows])
            choices = draw_choices(self.graph, self.rng)
            merged = apply_choices(self.graph, u, choices)
            _, sim = self._batch_similarity(rows)
            hash_total += relaxed_hash_loss(merged, sim, k_eff, cfg.eta).total
            frozen_total += frozen_loss(self.graph, u, choices)
            d_merged = relaxed_hash_loss_grad(merged, sim, k_eff, cfg.eta)
            du = frozen_grads(self.graph, u, choices, d_merged)
            sgd_step(self.net, backward(self.net, cache, du), cfg.backbone_sgd)
            batches += 1
        self.current_round["hash_loss_per_epoch"].append(hash_total / batches)
        self.current_round["frozen_loss_per_epoch"].append(frozen_total / batches)

    def _epoch_fc(self):
        cfg = self.cfg
        sgd = cfg.backbone_sgd
        for rows in self._batches():
            u1, cache = forward(self.net, self.features[rows])
            u2 = u1 @ self.fc_w + self.fc_b
            _, sim = self._batch_similarity(rows)
            d2 = relaxed_hash_loss_grad(u2, sim, cfg.b_out, cfg.eta)
            dw_fc = u1.T @ d2
            db_fc = d2.sum(axis=0)
            d1 = d2 @ self.fc_w.T
            sgd_step(self.net, backward(self.net, cache, d1), sgd)
            self.fc_w -= sgd.learning_rate * (dw_fc + sgd.weight_decay * self.fc_w)
            self.fc_b -= sgd.learning_rate * (db_fc + sgd.weight_decay * self.fc_b)

    # -- evaluation ------------------------------------------------------

    def _codes_for(self, idx) -> np.ndarray:
        u, _ = forward(self.net, self.features[idx])
        return eval_forward(self.graph, u)

    def codes(self, role: str) -> tuple[np.ndarray, list[frozenset]]:
        """Evaluation-mode codes and labels for a split; 'gallery' == 'train'."""
        idx = {"query": self.query_idx, "train": self.train_idx,
               "gallery": self.train_idx,
               "validation": self.val_idx}.get(role)
        if idx is None:
            raise ValueError(f"unknown role {role!r}")
        return self._codes_for(idx), [self.labels[i] for i in idx]

    def _map_eval(self) -> float:
        q = self._codes_for(self.query_idx)
        g = self._codes_for(self.train_idx)
        return mean_average_precision(
            q, [self.labels[i] for i in self.query_idx],
            g, [self.labels[i] for i in self.train_idx])

    def report(self) -> RunReport:
        if not self.done:
            raise RuntimeError("report requested before the schedule finished")
        q, q_labels = self.codes("query")
        g, g_labels = self.codes("gallery")
        final_map = mean_average_precision(q, q_labels, g, g_labels)
        radius2 = precision_at_hamming_radius(q, q_labels, g, g_labels,
                                              radius=2.0)
        try:
            loo = leave_one_out(q, q_labels, g, g_labels)
        except ConfigError:  # a 1-bit code has no profile
            loo = None
        return RunReport(
            variant=self.cfg.variant,
            seed=self.cfg.seed,
            config=self.cfg.to_dict(),
            epochs_total=self.global_epoch,
            base={"epochs": self.cfg.base_epochs,
                  "map": float(self.base_map),
                  "hash_loss_per_epoch": [float(v) for v in
                                          self.base_loss_per_epoch]},
            rounds=self.rounds_done,
            bit_trace=[[int(b), float(v)] for b, v in self.bit_trace],
            groups=[list(map(int, grp)) for grp in self.graph.groups],
            final={"effective_bits": self.graph.n_groups,
                   "map": float(final_map),
                   "precision_at_radius2": float(radius2)},
            leave_one_out=None if loo is None else
                {"map_without_bit": [float(v) for v in loo[0]],
                 "std": loo[1]},
            selected_bits=self.selected_bits,
        )


# -- public entry points --------------------------------------------------


def run_variant(cfg: ExperimentConfig, dataset: FeatureDataset) -> RunReport:
    """Run any variant end to end and return its report."""
    return TrainingRun(cfg, dataset).run().report()


def resume_training(ckpt: Checkpoint, dataset: FeatureDataset,
                    stop_after: int | None = None) -> TrainingRun:
    """Continue a checkpointed run against the same dataset."""
    return TrainingRun.from_checkpoint(ckpt, dataset).run(stop_after=stop_after)
