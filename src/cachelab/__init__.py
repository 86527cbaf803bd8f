"""cachelab: a file-caching policy engine and competitive-analysis toolkit.

The engine serves requests for files with arbitrary integer sizes and
rational retrieval costs out of a bounded cache, charging per-size rent and
evicting files whose credit runs out.  Configured one way it behaves exactly
like LRU; other settings give FIFO, flush-when-full, the balance policy for
uniform sizes, or an offline pessimal flusher.  Around the engine sit an
exact offline optimum, a potential-function audit of the k/(k-h+1)
competitive guarantee, a loose-competitiveness evaluator with closed-form
threshold constants, and a generator for adversarial traces that defeat
flush-when-full at most cache sizes at once.
"""

from .core import (
    CacheState,
    EvictionGreediness,
    EvictionSelector,
    FileSpec,
    FutureView,
    LandlordPolicy,
    RentRound,
    RequestOutcome,
    RunReport,
    new_cache,
    request,
    run_trace,
    validated,
)
from .errors import (
    AuditDrift,
    CacheLabError,
    ConsistencyError,
    InstanceTooLarge,
    InvalidCapacity,
    InvalidParams,
    InvalidSizes,
    NTooSmall,
    ParseError,
    RequestTooLarge,
)
from .paging import (
    PagingAlg,
    PhaseDecomposition,
    belady_opt,
    decompose_phases,
    simulate_paging,
)
from .offline import (
    OptResult,
    opt_cost,
    opt_cost_full_subsets,
    opt_costs_by_k,
    replay_witness,
)
from .analysis import (
    BadSetReport,
    BoundQuery,
    PotentialAudit,
    audit_landlord,
    bound_c_deterministic,
    bound_c_randomized,
    bound_c_technical,
    evaluate_loose,
    landlord_algorithm,
    lower_bound_c,
    marking_bound_c,
    potential,
)
from .advgen import (
    SPECIAL,
    AdversarialSequence,
    build_sequence,
    measure_fault_rates,
    minimal_valid_n,
    verify_structure,
)
from .trace import (
    is_paging_sequence,
    load_trace,
    paging_sequence,
    parse_trace,
    save_trace,
    serialize_trace,
)

__version__ = "0.1.0"
