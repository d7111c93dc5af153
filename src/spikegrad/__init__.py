"""spikegrad: a spiking-neural-network simulation and training engine.

Dense tensors with tape-based reverse-mode differentiation, current-based
LIF neurons with pluggable surrogate derivatives, graph-structured networks
with one-step-delayed feedback, dual execution scheduling, gradient
checkpointing, and a CLI benchmark/training harness.
"""

from .tensor import (
    ContractError,
    ShapeError,
    Tape,
    Tensor,
    ValidationError,
    backward,
    default_dtype,
    set_default_dtype,
)
from .surrogates import SURROGATE_TAGS, SurrogateFn, get_surrogate
from .neurons import LIFParams, NeuronState, init_state, lif_scan, lif_smooth_step, lif_step
from .topology import (
    CycleError,
    GraphError,
    LayerNode,
    NetworkGraph,
    conv_layer,
    flatten_layer,
    graph_build,
    lif_layer,
    linear_layer,
    load_graph,
    save_graph,
    sequential,
    sequential_recurrent,
    topo_order,
)
from .executor import (
    ExecutionPlan,
    PlanError,
    SpikeRecord,
    init_states,
    run,
    run_with_checkpointing,
    write_trace,
)
from .training import (
    GradReport,
    TrainConfig,
    TrainingDiverged,
    compare_gradients,
    fd_gradient,
    loss_and_grad,
    optimizer_step,
    spike_count_ce_loss,
    train,
)
from .benchcli import BenchSpec, TimingRow, bench, cli, gen_random_spikes, gen_toy

__version__ = "0.1.0"
