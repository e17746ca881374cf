"""Random lifts of graphs and constructive clique subdivisions."""

from .build import (BuildConfig, BuildFailure, BuildOutcome, BuildStats,
                    build_large_ell, build_small_ell, default_extendability_params,
                    target_order)
from .connect import (EmbeddingState, ExtendabilityParams, NoPathWithinBudget,
                      connect_between_sets, default_max_len)
from .exact import (HajosResult, NonexistenceVerdict, OracleBudget, check_property_P,
                    exact_avoidance_probability, exact_hajos_number, lift_to_simple,
                    max_edges_on_b_subset, search_property_P_violator,
                    subdivision_nonexistence_by_counting)
from .lifts import (BaseGraph, LiftFormatError, LiftGraph, VertexId, complete_base,
                    derive_rng, deserialize, sample_uniform_lift, serialize)
from .properties import (AvoidanceEstimate, BudgetExceededError, CrossMatching,
                         ExpansionReport, JoinedVerdict, check_expansion_into,
                         check_joined, estimate_avoidance_probability,
                         find_cross_matching)
from .verify import (SubdivisionCertificate, Verdict, Violation, certificate_from_json,
                     certificate_order, certificate_vertex_count, serialize_certificate,
                     verify_certificate)

__version__ = "0.1.0"
