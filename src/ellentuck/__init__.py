"""Finite truncations of high-dimensional Ellentuck spaces.

Enumeration of the underlying well-order, construction and validation of
prototype trees and their finite approximations, the classical member
constructions (basic-set extension, fusion, dense embedding, thinning),
and brute-force Ramsey analysis (pigeonhole, canonization of equivalence
relations on fronts) at finite scale.
"""

from .errors import (
    AmbiguousAtScale,
    DisagreeWitness,
    EllentuckError,
    EmptySequenceError,
    Exhausted,
    LevelOutOfRangeError,
    MalformedNodeError,
    NotCanonicalAtScale,
    NotIsomorphic,
    TruncationExhaustedError,
)
from .wellorder import (
    classify_n,
    cmp_prec,
    domain_at,
    domain_rank,
    enumerate_k,
    enumerate_le_k,
    rank_of,
    seq_at_rank,
    seq_str,
)
from .space import (
    Approx,
    Member,
    ValidationReport,
    admits,
    basic_set_contains,
    build_w,
    decode_node,
    depth_of,
    le_fin,
    one_extensions,
    position_info,
    project,
    r_approx,
    validate_approx,
    wk_node,
)
from .constructions import (
    NodeOracle,
    construct_in_basic_set,
    dense_embed,
    fuse,
    subcopy_check,
    thin_to_subcopy,
)
from .ramsey import (
    Budget,
    CanonicalRelation,
    Coloring,
    CoverReport,
    InnerMap,
    Relation,
    RelationCanonization,
    admissible_vectors,
    canonize_one_extensions,
    canonize_relation,
    front_cover_check,
    inner_check,
    irreducible_agreement,
    irreducible_check,
    nash_williams_check,
    pigeonhole,
    proj_image,
)

__version__ = "0.1.0"
