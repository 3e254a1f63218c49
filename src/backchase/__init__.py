"""Schema evolution as a chase over source-to-target dependencies, its
inversion via a second chase over the inverse dependencies, and the
classification of what the roundtrip recovers."""

from .analysis import (
    Classification,
    Homomorphism,
    InverseType,
    classify,
    classify_report,
    data_exchange_equivalent,
    find_homomorphism,
    isomorphic,
)
from .catalog import (
    InversePlan,
    InstanceFeatures,
    SmoSpec,
    compile_forward,
    compile_inverse,
    instance_features,
    script_from_json,
    script_to_json,
)
from .chase import chase, expand_duplicates
from .errors import (
    BackchaseError,
    ChaseError,
    ProvenanceError,
    SchemaMismatch,
    ValidationError,
)
from .functions import FunctionRegistry, RegisteredFunction, default_registry
from .model import (
    Constant,
    Fact,
    IdAllocator,
    Instance,
    Null,
    NullAllocator,
    RelationSchema,
    Schema,
    TupleId,
    const,
    instance_from_json,
    instance_to_json,
    instances_equal,
    normalize,
    null,
)
from .pipeline import (
    BackchaseResult,
    EvolutionRun,
    backchase,
    evolve,
    roundtrip_report,
)
from .provenance import (
    Polynomial,
    ProvenanceStore,
    SideTable,
    SideTableSpec,
    build_side_table,
    format_polynomial,
    parse_polynomial,
    poly_add,
    poly_mul,
    to_witness_basis,
)
from .tgds import (
    Atom,
    Comparison,
    FunctionTerm,
    SchemaMapping,
    StTgd,
    Variable,
    format_tgd,
    parse_tgd,
)

__version__ = "0.1.0"
