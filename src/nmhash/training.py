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
import copy
import hashlib
import json
import math
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np

from .data import (FeatureDataset, ROLE_QUERY, ROLE_TRAIN, ROLE_VALIDATION,
                   assign_splits, standardize)
from .errors import CheckpointError, ConfigError
from .losses import relaxed_hash_loss
from .merging import (MergeGraph, active_grad, active_loss,
                      apply_active_step, apply_choices, draw_choices,
                      eval_forward, frozen_grads, frozen_loss,
                      propagate_scores, score_neurons, truncate)
from .metrics import (_indicator_relevance, _label_indicator,
                      mean_average_precision, precision_at_hamming_radius)
from .network import HashNet, SgdConfig, backward, forward, init_network, sgd_step

VARIANT_FULL = "full"
VARIANT_BASELINE = "baseline"
VARIANT_RANDOM = "random"
VARIANT_SELECT = "select"
VARIANT_DROPOUT = "dropout"
VARIANT_FCLAYER = "fclayer"

SCHEMA_VERSION = 1

_STAGE_BASE = "base"
_STAGE_ACTIVE = "active"
_STAGE_FROZEN = "frozen"
_STAGE_SCORE = "score"
_STAGE_FC = "fc"
_STAGE_DONE = "done"

# every variant's schedule after its base stage: variant -> (the stages of
# one merge round, repeated while more than b_out groups remain, and the
# stage after the rounds); full leads, as it leads the ablation table
_SCHEDULES = {
    VARIANT_FULL: ((_STAGE_ACTIVE, _STAGE_FROZEN), _STAGE_DONE),
    VARIANT_BASELINE: ((), _STAGE_DONE),
    VARIANT_RANDOM: ((_STAGE_FROZEN,), _STAGE_DONE),
    VARIANT_SELECT: ((), _STAGE_SCORE),
    VARIANT_DROPOUT: ((), _STAGE_DONE),
    VARIANT_FCLAYER: ((), _STAGE_FC),
}
VARIANTS = tuple(_SCHEDULES)

# the per-epoch loss lists of a merge round, in the order a round lists them
_ROUND_LOGS = ("active_loss_per_epoch", "hash_loss_per_epoch",
               "frozen_loss_per_epoch")


def _matches(value, kind) -> bool:
    """Whether a decoded JSON value fits a declared type.

    An int passes as a float, a bool as neither, and a list as a tuple.
    """
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (list, tuple):
        n = len(value) if isinstance(value, (list, tuple)) else -1
        if origin is list or Ellipsis in args:  # else a fixed-length tuple
            args = args[:1] * n
        return len(args) == n and all(map(_matches, value, args))
    if args:  # a union such as int | None
        return any(_matches(value, k) for k in args)
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _check_fields(d, cls, what: str) -> None:
    """ConfigError unless d is an object whose keys are fields of the
    dataclass cls and whose values have those fields' types."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be an object, got {d!r}")
    declared = {f.name: f.type for f in fields(cls)}
    unknown = set(d) - set(declared)
    if unknown:
        raise ConfigError(f"unknown {what} keys: "
                          + ", ".join(map(repr, sorted(unknown, key=str))))
    kinds = typing.get_type_hints(cls)
    for key, value in d.items():
        if is_dataclass(kinds[key]):
            if not isinstance(value, kinds[key]):
                _check_fields(value, kinds[key], key)
        elif not _matches(value, kinds[key]):
            raise ConfigError(f"{what} key {key!r} must be {declared[key]}, "
                              f"got {value!r}")


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
        if self.runs_stage(_STAGE_SCORE) and self.n0_epochs < 1:
            raise ConfigError(
                f"{self.variant} variant needs n0_epochs >= 1 to score bits")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        # written so that NaN fails each range check
        if not 0 < self.nm_learning_rate < math.inf:
            raise ConfigError("nm_learning_rate must be finite and > 0, "
                              f"got {self.nm_learning_rate}")
        if not 0 <= self.eta < math.inf:
            raise ConfigError(f"eta must be finite and >= 0, got {self.eta}")
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

    def runs_stage(self, stage: str) -> bool:
        rounds, last = _SCHEDULES[self.variant]
        return stage in (_STAGE_BASE, *rounds, last, _STAGE_DONE)

    def needs_validation(self) -> bool:
        return self.runs_stage(_STAGE_ACTIVE) or self.runs_stage(_STAGE_SCORE)

    def encoder_width(self) -> int:
        return self.b_out if self.variant == VARIANT_DROPOUT else self.b_in

    def planned_merge_rounds(self) -> int:
        return math.ceil((self.b_in - self.b_out) / self.m)

    def stage_epochs(self) -> dict:
        """stage -> its epoch count; fc trains the rounds' frozen epochs."""
        return {_STAGE_BASE: self.base_epochs, _STAGE_ACTIVE: self.n0_epochs,
                _STAGE_FROZEN: self.n1_epochs, _STAGE_SCORE: self.n0_epochs,
                _STAGE_FC: self.planned_merge_rounds() * self.n1_epochs}

    def epochs_before(self, stage: str, rounds_done: int) -> int:
        """The epochs a run has trained when it enters the stage with
        rounds_done merge rounds finished: its base stage, those rounds,
        and the stages before this one in its round or after the rounds."""
        if stage == _STAGE_BASE:
            return 0
        rounds, last = _SCHEDULES[self.variant]
        part = rounds if stage in rounds else (last, _STAGE_DONE)
        epochs = self.stage_epochs()
        return sum(epochs[s] for s in (_STAGE_BASE, *rounds * rounds_done,
                                       *part[:part.index(stage)]))

    def planned_epochs(self) -> int:
        """The epochs this config's run takes."""
        return self.epochs_before(_STAGE_DONE, self.planned_merge_rounds())

    def budget_matched(self, variant: str) -> "ExperimentConfig":
        """This config as the given variant on the merging schedule's
        budget: baseline and dropout train as many base epochs as this
        config's full run takes, and baseline trains at b_out bits."""
        changes = {"variant": variant}
        if variant in (VARIANT_BASELINE, VARIANT_DROPOUT):
            changes["base_epochs"] = replace(
                self, variant=VARIANT_FULL).planned_epochs()
        if variant == VARIANT_BASELINE:
            changes["b_in"] = self.b_out
        return replace(self, **changes)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden_dims"] = list(self.hidden_dims)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _check_fields(d, cls, "config")
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
    bit_trace: list[tuple[int, float]]
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
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)


CHECKPOINT_MAGIC = "HMRG1"
CHECKPOINT_VERSION = 3

# a run's resumable state besides its network, graph and generator:
# attribute -> (checkpoint section, type, value at the start of a run);
# arrays are float64 or None and are stored base64-encoded
_STATE = {
    "stage": ("counters", str, _STAGE_BASE),
    "epoch_in_stage": ("counters", int, 0),
    "base_loss_per_epoch": ("progress", list[float], []),
    "rounds_done": ("progress", list[dict], []),
    "current_round": ("progress", dict, None),
    "bit_trace": ("progress", list[tuple[int, float]], []),
    "round_adjacency": ("progress", np.ndarray, None),
    "score_sum": ("progress", np.ndarray, None),
    "fc_w": ("progress", np.ndarray, None),
    "fc_b": ("progress", np.ndarray, None),
    "selected_bits": ("progress", list[int], None),
}


@dataclass
class Checkpoint:
    """Resumable snapshot of a run at an epoch boundary: the checkpoint
    file's sections as JSON values, arrays base64-encoded.

    dataset_sha256 fingerprints the run's standardized features, label sets
    and splits; a run restores only against the dataset it was written for.
    """

    config: dict
    net: dict
    graph: dict
    counters: dict
    rng_state: dict
    progress: dict
    dataset_sha256: str


def _encode_array(a: np.ndarray) -> dict:
    buf = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape),
            "data": base64.b64encode(buf.tobytes()).decode("ascii")}


def _decode_array(d, where: str) -> np.ndarray:
    try:
        shape = d["shape"]
        raw = np.frombuffer(base64.b64decode(d["data"], validate=True),
                            dtype="<f8")
        if all(_matches(n, int) and n >= 0 for n in shape):
            return raw.reshape(shape).astype(np.float64)
    except (KeyError, TypeError, ValueError):  # binascii.Error included
        pass
    raise CheckpointError(f"checkpoint's {where} must be a float64 array: "
                          "an object with a 'shape' list and base64 'data'")


def _decoded(name: str, section, build):
    """build(section), or a CheckpointError naming the section."""
    try:
        if isinstance(section, dict):
            return build(section)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint's {name!r} section is malformed "
                              f"({type(exc).__name__}: {exc})") from None
    raise CheckpointError(f"checkpoint's {name!r} section must be an object")


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write magic line + JSON body; float buffers are base64, bit-exact."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CHECKPOINT_MAGIC + "\n")
        json.dump({"format_version": CHECKPOINT_VERSION, **asdict(ckpt)}, fh,
                  sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> Checkpoint:
    """The file's sections; TrainingRun.from_checkpoint checks them."""
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
    if not isinstance(body, dict):
        raise CheckpointError("corrupt checkpoint body: not a JSON object")
    version = body.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} "
            f"(this build reads {CHECKPOINT_VERSION})"
        )
    for f in fields(Checkpoint):
        if f.name not in body:
            raise CheckpointError(
                f"checkpoint is missing its {f.name!r} section")
    return Checkpoint(**{f.name: body[f.name] for f in fields(Checkpoint)})


def _singletons(n: int) -> MergeGraph:
    return MergeGraph.from_partition(n, [[i] for i in range(n)])


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
        s_split, s_init, s_loop, self._s_head = seq.spawn(4)

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
        # one byte per cell; derived from the labels, so neither the
        # checkpoint nor the dataset fingerprint holds it
        self._label_ind = _label_indicator(ds.labels).astype(np.uint8)

        width = cfg.encoder_width()
        if _restore is None:
            self.net = init_network(
                (ds.dim, *cfg.hidden_dims, width), s_init)
            self.graph = _singletons(width)
            self.rng = np.random.default_rng(s_loop)
            for name, (_, _, fresh) in _STATE.items():
                setattr(self, name, copy.deepcopy(fresh))
            self._settle()
        else:
            self._restore_from(_restore)
        self._val_codes_cache: tuple[np.ndarray, list[frozenset]] | None = None

    # -- state round trip ------------------------------------------------

    def to_checkpoint(self) -> Checkpoint:
        sections = {"counters": {}, "progress": {}}
        for name, (section, kind, _) in _STATE.items():
            value = getattr(self, name)
            if kind is np.ndarray and value is not None:
                value = _encode_array(value)
            # copies: the run keeps appending to its round records
            sections[section][name] = copy.deepcopy(value)
        net = {"layer_dims": list(self.net.layer_dims),
               "weights": [_encode_array(w) for w in self.net.weights],
               "biases": [_encode_array(b) for b in self.net.biases]}
        graph = {"groups": [list(g) for g in self.graph.groups]}
        return Checkpoint(self.cfg.to_dict(), net, graph,
                          sections["counters"], self.rng.bit_generator.state,
                          sections["progress"], self._dataset_sha256())

    def _dataset_sha256(self) -> str:
        h = hashlib.sha256(
            np.ascontiguousarray(self.features, dtype="<f8").tobytes())
        h.update(json.dumps([list(self.features.shape),
                             [sorted(s) for s in self.labels],
                             self.train_idx.tolist(), self.val_idx.tolist(),
                             self.query_idx.tolist()]).encode("ascii"))
        return h.hexdigest()

    def _restore_from(self, ckpt: Checkpoint):
        sections = {"counters": ckpt.counters, "progress": ckpt.progress}
        for section, got in sections.items():
            keys = {n for n, (s, _, _) in _STATE.items() if s == section}
            if not isinstance(got, dict) or set(got) != keys:
                raise CheckpointError(
                    f"checkpoint's {section!r} section must hold exactly "
                    f"the entries {sorted(keys)}, got "
                    f"{sorted(got) if isinstance(got, dict) else got!r}")
        self.net = _decoded("net", ckpt.net, lambda d: HashNet(**{
            **d, "layer_dims": tuple(d["layer_dims"]),
            "weights": [_decode_array(w, "net.weights") for w in d["weights"]],
            "biases": [_decode_array(b, "net.biases") for b in d["biases"]]}))
        self.graph = _decoded("graph", ckpt.graph,
                              lambda d: MergeGraph(self.net.n_bits, **d))
        self.rng = np.random.default_rng()
        try:
            self.rng.bit_generator.state = ckpt.rng_state
        except (KeyError, OverflowError, TypeError, ValueError):
            raise CheckpointError("checkpoint's 'rng_state' is not a "
                                  f"{type(self.rng.bit_generator).__name__} "
                                  "state") from None
        for name, (section, kind, fresh) in _STATE.items():
            value, where = sections[section][name], f"{section}.{name}"
            if value is None and fresh is None:
                pass
            elif kind is np.ndarray:
                value = _decode_array(value, where)
            elif not _matches(value, kind):
                raise CheckpointError(
                    f"checkpoint's {where} must be "
                    f"{kind if typing.get_args(kind) else kind.__name__}, "
                    f"got {type(value).__name__}")
            setattr(self, name, copy.deepcopy(value))

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint,
                        dataset: FeatureDataset) -> "TrainingRun":
        run = cls(ExperimentConfig.from_dict(ckpt.config), dataset,
                  _restore=ckpt)
        if not run.cfg.runs_stage(run.stage):
            raise CheckpointError(f"checkpoint has unknown stage {run.stage!r}"
                                  f" for variant {run.cfg.variant!r}")
        if run.stage in (_STAGE_ACTIVE, _STAGE_FROZEN) and not (
                isinstance(run.current_round, dict) and all(
                    isinstance(run.current_round.get(log), list)
                    for log in _ROUND_LOGS)):
            raise CheckpointError(
                f"checkpoint's progress.current_round must hold the lists "
                f"{list(_ROUND_LOGS)} in stage {run.stage!r}")
        if run.stage not in (_STAGE_ACTIVE, _STAGE_FROZEN) \
                and run.current_round is not None:
            raise CheckpointError(f"checkpoint's progress.current_round must "
                                  f"be null in stage {run.stage!r}")
        # checkpoints fall between epochs, after a finished stage is left
        epochs = 1 if run.done else run.cfg.stage_epochs()[run.stage]
        if not 0 <= run.epoch_in_stage < epochs:
            raise CheckpointError(
                f"checkpoint's counters.epoch_in_stage must be in "
                f"range({epochs}) in stage {run.stage!r}, "
                f"got {run.epoch_in_stage}")
        if run._dataset_sha256() != ckpt.dataset_sha256:
            raise CheckpointError(
                "checkpoint was written for a different dataset: features, "
                "labels or splits differ"
            )
        # sizes that the sections, the data and the stage must agree on,
        # checked in order, so the trace's length is known before its end
        def fit(where, got, want, why):
            if got != want:
                raise CheckpointError(
                    f"checkpoint's {where} must be {want} {why}, got {got}")

        fit("net.layer_dims[0]", run.net.input_dim, run.features.shape[1],
            "to match the data's feature count")
        # base and each round append one entry, and a stage after the rounds
        fit("progress.bit_trace's length", len(run.bit_trace),
            (run.stage != _STAGE_BASE) + len(run.rounds_done) + (
                run.done and _SCHEDULES[run.cfg.variant][1] != _STAGE_DONE),
            f"in stage {run.stage!r} with {len(run.rounds_done)} "
            "progress.rounds_done")
        if run.current_round is not None:
            fit("progress.current_round.round", run.current_round.get("round"),
                run.round_index, "to follow progress.rounds_done")
        if run.done:  # the report reads its final MAP from the trace
            fit("progress.bit_trace's last bit count", run.bit_trace[-1][0],
                run.graph.n_groups, "in stage 'done'")
        for name, fresh in run._stage_arrays(run.stage).items():
            value = getattr(run, name)
            fit(f"progress.{name} shape",
                "null" if value is None else value.shape,
                "null" if fresh is None else fresh.shape,
                f"in stage {run.stage!r}")
        # a finished select run keeps the ids of the bits it picked
        picks, ids = run.selected_bits, range(run.cfg.encoder_width())
        if run.done and run.cfg.runs_stage(_STAGE_SCORE):
            want = f"{run.graph.n_groups} sorted, distinct ids below {len(ids)}"
            ok = picks is not None and len(picks) == run.graph.n_groups \
                and picks == sorted(set(picks) & set(ids))
        else:
            want, ok = "null", picks is None
        if not ok:
            raise CheckpointError(f"checkpoint's progress.selected_bits must "
                                  f"be {want} in stage {run.stage!r}, "
                                  f"got {picks}")
        bits = [b for b, _ in run.bit_trace] + [run.graph.n_groups]
        if any(b2 > b1 for b1, b2 in zip(bits, bits[1:])):
            raise CheckpointError(
                "checkpoint's progress.bit_trace bit counts, then "
                f"graph.n_groups, must be nonincreasing, got {bits}")
        return run

    # -- schedule --------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.stage == _STAGE_DONE

    @property
    def round_index(self) -> int:
        """The number of merge rounds finished or open."""
        return len(self.rounds_done) + (self.current_round is not None)

    @property
    def global_epoch(self) -> int:
        """The epochs trained so far, read from the schedule."""
        return self.cfg.epochs_before(self.stage, len(self.rounds_done)) \
            + self.epoch_in_stage

    def _stages(self) -> dict:
        """stage -> (its per-batch step, its completion step).

        A step takes (batch index, batch rows) and returns its loss terms,
        named after the per-epoch lists they are averaged into, or None
        for a batch it skips.
        """
        return {
            _STAGE_BASE: (self._base_step, self._complete_training),
            _STAGE_ACTIVE: (self._active_step, self._truncate_round),
            _STAGE_FROZEN: (self._frozen_step, self._complete_training),
            _STAGE_SCORE: (self._score_step, self._apply_selection),
            _STAGE_FC: (self._fc_step, self._collapse_fc_head),
        }

    def run(self, stop_after: int | None = None) -> "TrainingRun":
        while not self.done:
            if stop_after is not None and self.global_epoch >= stop_after:
                break
            self._epoch()
            self.epoch_in_stage += 1
            self._settle()
        return self

    def _settle(self):
        while not self.done and \
                self.epoch_in_stage >= self.cfg.stage_epochs()[self.stage]:
            self._stages()[self.stage][1]()

    def _epoch(self):
        """One pass of the stage's step over the shuffled train split."""
        step, _ = self._stages()[self.stage]
        # base losses are recorded outside any merge round
        log = self.current_round or {
            "hash_loss_per_epoch": self.base_loss_per_epoch}
        sums, batches = {}, 0
        order = self.rng.permutation(self.train_idx.size)
        bs = self.cfg.batch_size
        for b_index, start in enumerate(range(0, order.size, bs)):
            terms = step(b_index, self.train_idx[order[start:start + bs]])
            if terms is None:
                continue
            for name, value in terms.items():
                sums[name] = sums.get(name, 0.0) + value
            batches += 1
        for name, total in sums.items():
            log[name].append(total / batches)

    def _complete_training(self):
        """End of the base stage, or of a merge round's frozen stage."""
        stage_map = self._map_eval()
        self.bit_trace.append([self.graph.n_groups, stage_map])
        if self.current_round is not None:
            self.current_round["map"] = stage_map
            self.rounds_done.append(self.current_round)
            self.current_round = None
        rounds, last = _SCHEDULES[self.cfg.variant]
        if rounds and self.graph.n_groups > self.cfg.b_out:
            self._start_merge_round(rounds[0])
        else:
            self._enter(last)

    def _enter(self, stage: str):
        self.stage = stage
        self.epoch_in_stage = 0
        self._val_codes_cache = None
        vars(self).update(self._stage_arrays(stage))

    def _stage_arrays(self, stage: str) -> dict:
        """The array entries of _STATE as a run entering the stage starts
        them; an array is None outside the one stage that reads it."""
        arrays = {n: None for n, (_, t, _) in _STATE.items() if t is np.ndarray}
        k, width = self.graph.n_groups, self.net.n_bits
        if stage == _STAGE_ACTIVE:
            arrays["round_adjacency"] = np.zeros((k, k))
        elif stage == _STAGE_SCORE:
            arrays["score_sum"] = np.zeros(width)
        elif stage == _STAGE_FC:
            head = init_network((width, self.cfg.b_out), self._s_head)
            arrays["fc_w"], arrays["fc_b"] = head.weights[0], head.biases[0]
        return arrays

    def _start_merge_round(self, first: str):
        k = self.graph.n_groups
        self.current_round = {"round": self.round_index + 1, "bits_before": k,
                              **{log: [] for log in _ROUND_LOGS}}
        if first == _STAGE_ACTIVE:
            self._enter(_STAGE_ACTIVE)
        else:  # no active stage: skip score learning, merge a random adjacency
            adj = np.zeros((k, k))
            iu = np.triu_indices(k, 1)
            adj[iu] = self.rng.random(iu[0].size)
            self.round_adjacency = adj + adj.T
            self._truncate_round()

    def _truncate_round(self):
        """Merge via the round adjacency, then train the merged code frozen."""
        # a round starts only while k > b_out, so joins is in [1, k - 1]
        joins = min(self.cfg.m, self.graph.n_groups - self.cfg.b_out)
        self.graph = truncate(self.graph, self.round_adjacency, joins)
        self.current_round["m_used"] = joins
        self.current_round["bits_after"] = self.graph.n_groups
        self._enter(_STAGE_FROZEN)

    def _apply_selection(self):
        # every score epoch scores each score_every-th batch
        batches = len(range(0, self.train_idx.size,
                            self.cfg.batch_size * self.cfg.score_every))
        scores = self.score_sum / (self.cfg.n0_epochs * batches)
        # low leave-one-out MAP = removal hurts = important bit; keep those
        order = np.argsort(scores, kind="stable")
        keep = sorted(int(i) for i in order[:self.cfg.b_out])
        self.selected_bits = keep
        self._end_with_last_layer(self.net.weights[-1][:, keep].copy(),
                                  self.net.biases[-1][keep].copy())

    def _collapse_fc_head(self):
        """Two stacked affines with no nonlinearity fold into one."""
        weight = self.net.weights[-1] @ self.fc_w
        bias = self.net.biases[-1] @ self.fc_w + self.fc_b
        self._end_with_last_layer(weight, bias)

    def _end_with_last_layer(self, weight, bias):
        """Swap in a new final affine, score it and end the run."""
        self.net.weights[-1], self.net.biases[-1] = weight, bias
        self.net.layer_dims = (*self.net.layer_dims[:-1], bias.size)
        self.graph = _singletons(bias.size)
        self.bit_trace.append([bias.size, self._map_eval()])
        self._enter(_STAGE_DONE)

    # -- per-batch steps -------------------------------------------------

    def _batch_similarity(self, rows) -> np.ndarray:
        """+1 where two of the batch's items share a label, else -1."""
        ind = self._label_ind[rows].astype(np.float64)
        return np.where(_indicator_relevance(ind, ind), 1.0, -1.0)

    def _base_step(self, b_index, rows):
        cfg = self.cfg
        rate = cfg.dropout_rate if cfg.variant == VARIANT_DROPOUT else 0.0
        u, cache = forward(self.net, self.features[rows], dropout_rate=rate,
                           rng=self.rng if rate > 0 else None)
        loss = relaxed_hash_loss(u, self._batch_similarity(rows), cfg.eta)
        sgd_step(self.net, backward(self.net, cache, loss.grad),
                 cfg.backbone_sgd)
        return {"hash_loss_per_epoch": loss.total}

    def _frozen_step(self, b_index, rows):
        cfg = self.cfg
        u, cache = forward(self.net, self.features[rows])
        choices = draw_choices(self.graph, self.rng)
        loss = relaxed_hash_loss(apply_choices(self.graph, u, choices),
                                 self._batch_similarity(rows), cfg.eta)
        du = frozen_grads(self.graph, u, choices, loss.grad)
        sgd_step(self.net, backward(self.net, cache, du), cfg.backbone_sgd)
        return {"hash_loss_per_epoch": loss.total,
                "frozen_loss_per_epoch": frozen_loss(self.graph, u, choices)}

    def _fc_step(self, b_index, rows):
        cfg = self.cfg
        # a view of the stored arrays: sgd_step updates them in place
        head = HashNet(self.fc_w.shape, [self.fc_w], [self.fc_b])
        u1, cache = forward(self.net, self.features[rows])
        u2, head_cache = forward(head, u1)
        d2 = relaxed_hash_loss(u2, self._batch_similarity(rows), cfg.eta).grad
        # backward returns no input gradient; take it before the head moves
        d1 = d2 @ self.fc_w.T
        sgd_step(self.net, backward(self.net, cache, d1), cfg.backbone_sgd)
        sgd_step(head, backward(head, head_cache, d2), cfg.backbone_sgd)
        return {}

    def _bit_scores(self, b_index, rows) -> np.ndarray | None:
        """Leave-one-bit-out MAP of the batch's codes against the validation
        split, or None for a batch that score_every skips."""
        if b_index % self.cfg.score_every != 0:
            return None
        # backbone is frozen while scoring, so cache per merge round
        if self._val_codes_cache is None:
            self._val_codes_cache = self.codes("validation")
        return score_neurons(self._codes_for(rows),
                             [self.labels[i] for i in rows],
                             *self._val_codes_cache)

    def _active_step(self, b_index, rows):
        p = self._bit_scores(b_index, rows)
        if p is None:
            return None
        pp = propagate_scores(p, self.round_adjacency)
        if not abs(pp.sum() - p.sum()) < 1e-9 * max(1.0, abs(p.sum())):
            raise ValueError(
                f"active round {self.round_index}, epoch "
                f"{self.epoch_in_stage}: score diffusion changed the "
                f"score sum from {p.sum()!r} to {pp.sum()!r}"
            )
        loss = active_loss(pp)
        self.round_adjacency = apply_active_step(
            self.round_adjacency, active_grad(p, pp), self.cfg.nm_learning_rate)
        return {"active_loss_per_epoch": loss}

    def _score_step(self, b_index, rows):
        p = self._bit_scores(b_index, rows)
        if p is None:
            return None
        self.score_sum += p
        return {}

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
        return mean_average_precision(*self.codes("query"),
                                      *self.codes("gallery"))

    def report(self) -> RunReport:
        if not self.done:
            raise RuntimeError("report requested before the schedule finished")
        q, q_labels = self.codes("query")
        g, g_labels = self.codes("gallery")
        radius2 = precision_at_hamming_radius(q, q_labels, g, g_labels,
                                              radius=2.0)
        try:
            p = score_neurons(g, g_labels, q, q_labels)
            loo = {"map_without_bit": [float(v) for v in p],
                   "std": float(p.std())}
        except ConfigError:  # a 1-bit code has no profile
            loo = None
        return RunReport(
            variant=self.cfg.variant,
            seed=self.cfg.seed,
            config=self.cfg.to_dict(),
            epochs_total=self.global_epoch,
            base={"epochs": self.cfg.base_epochs,
                  "map": float(self.bit_trace[0][1]),
                  "hash_loss_per_epoch": [float(v) for v in
                                          self.base_loss_per_epoch]},
            rounds=self.rounds_done,
            bit_trace=[[int(b), float(v)] for b, v in self.bit_trace],
            groups=[list(map(int, grp)) for grp in self.graph.groups],
            final={"effective_bits": self.graph.n_groups,
                   # the _map_eval the last stage appended
                   "map": float(self.bit_trace[-1][1]),
                   "precision_at_radius2": float(radius2)},
            leave_one_out=loo,
            selected_bits=self.selected_bits,
        )

