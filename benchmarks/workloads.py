"""The benchmark's workloads: which ``sbpd`` configurations it runs.

Why each was chosen is recorded in ``BENCHMARK.json`` and ``README.md``.

Each workload is one process with one solver thread and a closed loop (the
next call starts when the previous one returns). The workload seed is the
instance and oracle base seed of the experiment config. Sizes are cut down
from the acceptance sizes so that a run fits in the benchmark's time budget;
the mix of reference phase, measured phase and logging that each workload
stresses is kept.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    # ExperimentConfig fields other than seed and output_dir
    config: dict
    # steps per timed chunk of the bare library loop and the certified loop;
    # each chunk restarts from the initial point, so every chunk does the
    # same arithmetic
    step_chunk: int
    cert_chunk: int
    # tolerance on the ergodic gap for the solver.k_to_gap count
    gap_tol: float
    # calibration kernel shaped like this workload's step
    kernel: str = "simplex"

    @property
    def deterministic(self):
        return self.config.get("oracle_mode", "exact") == "exact"

    @property
    def repeats(self):
        return self.config.get("repeats", 1)

    def experiment_config(self, seed, output_dir):
        return dict(self.config, seed=int(seed), output_dir=str(output_dir))

    def trace_names(self):
        """Trace files one ``run_experiment`` call of this workload writes."""
        if self.deterministic:
            return ["trace.csv"]
        return [f"run_{r:03d}.csv" for r in range(self.repeats)] + ["mean_trace.csv"]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="tv-exact",
        config=dict(experiment="simplex-tv", n=50, m=50, iterations=2000,
                    oracle_mode="exact", batch_size="full", cert_every=1),
        step_chunk=250,
        cert_chunk=100,
        gap_tol=0.05,
    ),
    Workload(
        name="tv-stochastic",
        config=dict(experiment="simplex-tv", n=50, m=50, iterations=600,
                    oracle_mode="paper-partial", batch_size=5, repeats=3,
                    cert_every=1),
        step_chunk=250,
        cert_chunk=100,
        gap_tol=2.0,
    ),
    Workload(
        name="ot-inverse",
        config=dict(experiment="ot-inverse", n=108, gamma=1.0,
                    noise_level=0.1, iterations=200, cert_every=1),
        step_chunk=50,
        cert_chunk=20,
        gap_tol=0.12,
        kernel="transport",
    ),
)}
