"""Spiking network with per-synapse conduction delays learned by reward.

The package splits into data handling (events, synthetic), network state
(config, topology), dynamics (core), learning rules (plasticity), stability
mechanisms (regulation), and orchestration (harness, cli).
"""

from .config import (
    ConfigError,
    HarnessParams,
    LIFParams,
    PlasticityParams,
    RegulationParams,
    RunConfig,
    SyntheticSpec,
    TopologyParams,
    config_hash,
    load_config,
    save_config,
)
from .core import DelayBuffer, DelayOutOfRange, lif_integrate, lif_step
from .events import (
    DecodeError,
    EventStream,
    FrameSequence,
    bin_frames,
    decode_events,
    load_dataset,
    save_dataset,
    split_dataset,
)
from .harness import (
    EvalResult,
    TrainResult,
    compute_reward,
    evaluate,
    majority_vote,
    run_presentation,
    train,
    train_layer1,
    train_layer2,
)
from .synthetic import gen_synthetic, moving_bars_spec, oracle_accuracy, template_classify
from .topology import (
    Network,
    StateError,
    build_network,
    layer1_hash,
    load_checkpoint,
    save_checkpoint,
    state_hash,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DecodeError",
    "DelayBuffer",
    "DelayOutOfRange",
    "EvalResult",
    "EventStream",
    "FrameSequence",
    "HarnessParams",
    "LIFParams",
    "Network",
    "PlasticityParams",
    "RegulationParams",
    "RunConfig",
    "StateError",
    "SyntheticSpec",
    "TopologyParams",
    "TrainResult",
    "bin_frames",
    "build_network",
    "compute_reward",
    "config_hash",
    "decode_events",
    "evaluate",
    "gen_synthetic",
    "layer1_hash",
    "lif_integrate",
    "lif_step",
    "load_checkpoint",
    "load_config",
    "load_dataset",
    "majority_vote",
    "moving_bars_spec",
    "oracle_accuracy",
    "run_presentation",
    "save_checkpoint",
    "save_config",
    "save_dataset",
    "split_dataset",
    "state_hash",
    "template_classify",
    "train",
    "train_layer1",
    "train_layer2",
]
