"""Tuned configurations for the built-in benchmark tasks.

The constants here were fixed by a parameter search on the moving-bars
task and are the single source of truth shared by the experiment scripts
and the end-to-end tests. Change them in one place or not at all.
"""

from __future__ import annotations

from .config import (
    HarnessParams,
    LIFParams,
    PlasticityParams,
    RegulationParams,
    RunConfig,
    TopologyParams,
)
from .synthetic import moving_bars_spec


def moving_bars_acceptance_config(seed: int = 0, **overrides) -> RunConfig:
    """Full-model configuration for the 3-class moving-bars benchmark.

    The choices that matter, and why:

    * ``t_ref=60`` exceeds the 50-bin pattern window, so a decision neuron
      fires at most once per presentation. The readout then works on
      first-spike latency, and a single punished spike cannot snowball
      into a burst that drags every other class's reward down with it.
    * Plasticity is delay-dominant (``b_* = 0.3`` against ``a_* = 0.01``).
      Weight-channel learning under punishment has a pathological corner:
      pre-after-post pairs get potentiated when r < 0, so a wrongly firing
      neuron densifies instead of quieting. Delay dispersal has no such
      corner; spreading arrivals genuinely lowers firing probability.
    * The same amplitudes drive layer 1, where symmetric 0.01/0.01 STDP
      keeps enough convolutional maps alive for a class-separable pooled
      code (asymmetric depression collapses it).
    * Lateral wiring is inhibition-heavy (``inh_fraction=0.5``, weights up
      to 0.6). Cross-class suppression is what converts a latency
      advantage into a clean single-winner vote.
    * The layer-1 rate band tops out at ``r_max=0.475``. The decision
      layer trains reliably on a pooled code of roughly 15 to 20 active
      units; a ceiling of 0.5 leaves some seeds too dense a code, 0.45
      starves others, and both failure modes look like chronic abstention.

    Keyword overrides replace whole fields of the returned config, e.g.
    ``moving_bars_acceptance_config(0, harness=...)``.
    """
    base = dict(
        seed=seed,
        synthetic=moving_bars_spec(grid=(8, 8), pattern_length=50, noise_rate=0.01, seed=0),
        synthetic_train_per_class=50,
        synthetic_test_per_class=20,
        lif=LIFParams(tau_m=3.0, t_ref=60, theta_floor=1.5),
        topology=TopologyParams(
            n_maps=16,
            kernel=(5, 5),
            stride=1,
            pool=(2, 2),
            n_classes=3,
            n_per_class=8,
            p_lat=0.4,
            inh_fraction=0.5,
            conv_theta=3.0,
            decision_theta=2.6,
            w_lateral_init=(0.2, 0.6),
        ),
        plasticity=PlasticityParams(
            a_plus=0.01,
            a_minus=0.01,
            b_plus=0.3,
            b_minus=0.3,
            sigma_plus=8.0,
            sigma_minus=8.0,
            d_max=20.0,
        ),
        regulation=RegulationParams(
            r_min=0.005,
            r_max=0.475,
            k_min=0.02,
            k_max=2.0,
            dc_upper=2,
            lambda_w=0.005,
            lambda_d=0.05,
            activity_window=20,
            long_window=100,
            theta_inc=0.02,
            theta_dec=0.005,
        ),
        harness=HarnessParams(
            max_epochs_l1=6,
            max_epochs_l2=20,
            kappa=0.5,
            freeze_scale=1e-5,
            freeze_window=4000,
        ),
    )
    base.update(overrides)
    return RunConfig(**base)
