"""Co-design exploration toolkit: accelerator parameter and tiling search for
quantized CNN workloads under an analytical cost model, plus kernels for
channel-sparse mixed-precision quantization."""

from .accel import (
    AcceleratorConfig,
    AreaConstants,
    Dataflow,
    ParamSpace,
    all_loop_orders,
    area,
    load_accel,
    load_space,
    space_cardinality,
)
from .costmodel import (
    CostBreakdown,
    CostConstants,
    CostWeights,
    TilingPlan,
    dram_traffic,
    edap,
    estimate_cost,
    hw_cost,
    tile_size_choices,
)
from .errors import InvalidDocument, NoFeasibleTiling, SpaceTooLarge
from .hwsearch import (
    AccelSearchResult,
    GeneratorNet,
    SearchBudget,
    anneal_search,
    exhaustive_search,
    featurize_subnet,
    generator_forward,
    search_accel,
    train_generator,
)
from .joint import (
    CoSearchReport,
    JointWeights,
    SupernetLayer,
    SupernetState,
    co_search_step,
    load_supernet_state,
    select_subnet,
)
from .quant import (
    MemoryEstimate,
    QuantSpec,
    channel_importance,
    gumbel_softmax,
    memory_model,
    mix_precision,
    quantize,
    quantize_channels,
    topk_channels,
)
from .tiling import (
    SubnetMapping,
    TilingSearchResult,
    batch_search,
    enumerate_tilings,
    map_subnet,
    oracle_search,
)
from .workload import (
    OperatorDescriptor,
    SubnetDescriptor,
    encode_operator,
    load_subnet,
)

__version__ = "0.1.0"
