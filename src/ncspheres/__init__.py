"""Diagram calculus, exact Weingarten integration and relation rewriting
for the ten liberated and twisted real/complex spheres."""

from .errors import (
    DomainError,
    FrameError,
    NCSphereError,
    PartitionClassError,
    SingularGramError,
    SizeLimitError,
)
from .partitions import (
    LegColor,
    Partition,
    PartitionClass,
    crossing_count,
    enumerate_partitions,
    halfcommuting_membership,
    is_constant_on_blocks,
    is_member,
    join,
    kernel,
    parse_partition,
    perm_to_partition,
    refines,
    signature,
    standard_form,
)
from .relations import (
    NCCombination,
    RelationSchema,
    RelationSystem,
    classify_monomial_sphere,
    comult_sign_check,
    group_relation_sign,
    monomial_system,
    parse_word,
    reduce,
    relation_group,
    relation_sign,
    saturate,
    sphere_relations,
)
from .tensors import (
    SparseTensorMap,
    compose,
    delta,
    entry_key,
    inner_product,
    involution,
    t_map,
    tensor_concat,
    xi_vector,
)
from .weingarten import (
    GROUPS,
    SPHERES,
    ExactMatrix,
    Field,
    GroupSpec,
    Level,
    SphereSpec,
    category_pairings,
    gram,
    gram_rank_products,
    group_by_name,
    moment,
    sphere_by_name,
    sphere_trace,
    weingarten_matrix,
)

__version__ = "0.1.0"
