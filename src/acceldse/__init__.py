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
    iter_configs,
    load_accel,
    load_space,
    space_cardinality,
    validate_config,
)
from .costmodel import (
    CostBreakdown,
    CostConstants,
    CostWeights,
    TilingPlan,
    compute_cycles,
    dram_traffic,
    edap,
    estimate_cost,
    hw_cost,
    tile_fits_caches,
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
    train_generator,
)
from .joint import (
    CoSearchReport,
    JointWeights,
    SupernetLayer,
    SupernetState,
    co_search_step,
    lagrangian,
    load_supernet_state,
    select_subnet,
)
from .quant import (
    MemoryEstimate,
    QuantSpec,
    bn_forward,
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
    decode_operator,
    encode_operator,
    load_subnet,
    operator_footprints,
    subnet_to_doc,
)

__version__ = "0.1.0"
