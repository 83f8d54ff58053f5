"""The benchmark's three workloads, written against nmhash's public API.

Every workload has the same four steps, after an untimed ``warm_up``
that returns a trained state:

* ``setup``  - build the inputs and the objects the later steps use;
* ``train``  - fit the model (for ``search``: encode the gallery, the
  one step a search index needs before it can serve); ``train_segment``
  does it a part at a time, so the runner can interleave other steps;
* ``report`` - final MAP, precision at Hamming radius 2 and the
  leave-one-bit-out profile, as stable JSON;
* ``request`` - one retrieval request of REQUEST_ROWS query rows:
  ``forward`` -> ``eval_forward`` -> ``retrieve(top_r=TOP_R)``.

The model, its training data and the gallery are fixed reference inputs,
so ``final_map`` and ``loo_std`` are exact constants and the merge
schedule always runs the same epochs.  The seed draws the request stream.
Over data seeds 0-4 the desk run's schedule takes 120 or 165 epochs and
its ``loo_std`` ranges from 0.00007 to 0.003, far wider than any bound a
regression check could use.

nmhash functions are called through their modules (``network.forward``,
not a bare ``forward``), so the traced run sees the calls made here too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from nmhash import data, merging, metrics, network, training

import spans

TOP_R = 100
REQUEST_ROWS = 32


@dataclass
class Index:
    """What serving a request needs: the encoder and the encoded gallery."""

    net: network.HashNet
    graph: merging.MergeGraph
    gallery_codes: np.ndarray
    gallery_labels: list
    pool_features: np.ndarray
    pool_labels: list


def request_stream(seed: int, pool_size: int):
    """Endless requests, each REQUEST_ROWS distinct rows of the query pool."""
    rng = np.random.default_rng(seed)
    while True:
        yield rng.choice(pool_size, REQUEST_ROWS, replace=False)


def request(index: Index, rows):
    """Serve one request; returns (query codes, RetrievalResult)."""
    u, _ = network.forward(index.net, index.pool_features[rows])
    codes = merging.eval_forward(index.graph, u)
    labels = [index.pool_labels[i] for i in rows]
    return codes, metrics.retrieve(codes, labels, index.gallery_codes,
                                   index.gallery_labels, top_r=TOP_R)


class TrainingWorkload:
    """A TrainingRun end to end, then requests against its query split."""

    def __init__(self, name: str, data_args: tuple, requests_per_step: int,
                 segment_epochs: int | None = None, **config):
        self.name = name
        self.data_args = data_args
        self.requests_per_step = requests_per_step
        self.segment_epochs = segment_epochs
        self.config = config
        self.b_out = config["b_out"]

    def setup(self) -> training.TrainingRun:
        dataset = data.generate_synthetic(*self.data_args)
        return training.TrainingRun(training.ExperimentConfig(**self.config),
                                    dataset)

    def warm_up(self) -> training.TrainingRun:
        """A whole untimed repetition; returns the trained run."""
        run = self.setup()
        self.train(run)
        return run

    def train_segment(self, run: training.TrainingRun) -> bool:
        """Train segment_epochs more epochs (all, if None); True when done."""
        run.run(stop_after=None if self.segment_epochs is None
                else run.global_epoch + self.segment_epochs)
        return run.done

    def train(self, run: training.TrainingRun, recorder=None):
        if recorder is None:
            run.run()
            return
        # one epoch per step, each in a span named after its stage
        while not run.done:
            with recorder.span(spans.STAGE_PREFIX + run.stage):
                run.run(stop_after=run.global_epoch + 1)

    def report(self, run: training.TrainingRun) -> str:
        return run.report().to_json()

    def index(self, run: training.TrainingRun) -> Index:
        gallery_codes, gallery_labels = run.codes("gallery")
        return Index(run.net, run.graph, gallery_codes, gallery_labels,
                     run.features[run.query_idx],
                     [run.labels[i] for i in run.query_idx])


@dataclass
class SearchState:
    dataset: data.FeatureDataset
    net: network.HashNet
    graph: merging.MergeGraph
    gallery_codes: np.ndarray | None = None


class SearchWorkload:
    """Retrieval with a seeded, untrained encoder over a large gallery.

    Neurons 0..2*N_PAIRS-1 are merged in pairs; a pair votes 0 when its
    members disagree, so about 16% of the gallery's code entries are 0.
    """

    name = "search"
    N_CLASSES, DIM, PER_CLASS, NOISE = 16, 64, 1400, 4.0
    N_QUERY = 2048          # query pool; the gallery is the other 20,352
    N_EVAL = 32             # query rows the report scores
    B_IN, N_PAIRS = 42, 10
    HIDDEN = 256
    REFERENCE_SEED = 0
    b_out = B_IN - N_PAIRS
    requests_per_step = 30

    def setup(self) -> SearchState:
        ds = data.generate_synthetic(self.N_CLASSES, self.DIM, self.PER_CLASS,
                                     self.NOISE, self.REFERENCE_SEED)
        ds = data.standardize(data.assign_splits(ds, 0, self.N_QUERY,
                                                 self.REFERENCE_SEED))
        net = network.init_network((self.DIM, self.HIDDEN, self.B_IN),
                                   self.REFERENCE_SEED)
        groups = [[2 * i, 2 * i + 1] for i in range(self.N_PAIRS)]
        groups += [[i] for i in range(2 * self.N_PAIRS, self.B_IN)]
        graph = merging.MergeGraph.from_partition(self.B_IN, groups)
        return SearchState(ds, net, graph)

    def warm_up(self) -> SearchState:
        state = self.setup()
        self.train(state)
        return state

    def train_segment(self, state: SearchState) -> bool:
        self.train(state)
        return True

    def train(self, state: SearchState, recorder=None):
        gallery_idx = state.dataset.indices(data.ROLE_TRAIN)
        u, _ = network.forward(state.net, state.dataset.features[gallery_idx])
        state.gallery_codes = merging.eval_forward(state.graph, u)

    def _labels(self, state: SearchState, role: str) -> list:
        return [state.dataset.labels[i] for i in state.dataset.indices(role)]

    def report(self, state: SearchState) -> str:
        """The same three measurements a RunReport holds, on N_EVAL rows."""
        eval_idx = state.dataset.indices(data.ROLE_QUERY)[:self.N_EVAL]
        u, _ = network.forward(state.net, state.dataset.features[eval_idx])
        q = merging.eval_forward(state.graph, u)
        q_labels = [state.dataset.labels[i] for i in eval_idx]
        g, g_labels = state.gallery_codes, self._labels(state, data.ROLE_TRAIN)
        final_map = metrics.mean_average_precision(q, q_labels, g, g_labels)
        radius2 = metrics.precision_at_hamming_radius(q, q_labels, g,
                                                      g_labels, radius=2.0)
        loo = merging.score_neurons(g, g_labels, q, q_labels)
        return json.dumps({
            "bit_trace": [[state.graph.n_groups, float(final_map)]],
            "final": {"effective_bits": state.graph.n_groups,
                      "map": float(final_map),
                      "precision_at_radius2": float(radius2)},
            "leave_one_out": {"map_without_bit": [float(v) for v in loo],
                              "std": float(loo.std())},
        }, sort_keys=True, indent=1)

    def index(self, state: SearchState) -> Index:
        return Index(state.net, state.graph, state.gallery_codes,
                     self._labels(state, data.ROLE_TRAIN),
                     state.dataset.features[
                         state.dataset.indices(data.ROLE_QUERY)],
                     self._labels(state, data.ROLE_QUERY))


_DESK_SGD = network.SgdConfig(learning_rate=1e-7, weight_decay=1e-5)

WORKLOADS = {
    # The README run: 24 -> 16 bits in two merge rounds, 120 epochs.
    "desk-full": TrainingWorkload(
        "desk-full", (8, 16, 250, 2.0, 0), 16, segment_epochs=15,
        variant="full", b_in=24, b_out=16, m=4, base_epochs=30, n0_epochs=5,
        n1_epochs=40, seed=1, backbone_sgd=_DESK_SGD),
    # ROADMAP's stress-config size, trained at 32 bits with no merging.
    # Not in BENCHMARK.json: with two repetitions per run its request
    # latencies spread beyond the bound (see README.md).
    "wide-baseline": TrainingWorkload(
        "wide-baseline", (16, 128, 400, 8.0, 0), 64, variant="baseline",
        b_in=32, b_out=32, base_epochs=40, seed=1, backbone_sgd=_DESK_SGD),
    "search": SearchWorkload(),
}
