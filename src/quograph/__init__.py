"""quograph: exact walk-regular partitions, quotient polynomials, and the
association schemes generated by quotient-polynomial graphs."""

from .errors import (AnalysisError, ContractViolationError, GraphInputError,
                     QuographError, SizeLimitError, ToleranceError)
from .exact import Polynomial, frac_str, rank
from .graphs import (DistanceData, Graph, build_graph, circulant,
                     complete_graph, cycle_graph, distances, path_graph,
                     petersen_graph, prism_y6, star_graph)
from .partitions import (LocalPartition, PairPartition, WalkAlgebra,
                         adjacency_power_ladder, check_regular,
                         global_partition, local_partition)
from .quotient import QuotientReport, decide_quotient_polynomial
from .schemes import (AssociationScheme, ClassificationFlags, build_scheme,
                      generates_scheme_check, is_distance_polynomial,
                      is_distance_regular, is_h_punctually_walk_regular,
                      is_walk_regular, qp_implies_dp)
from .spectral import (DEFAULT_TOL, SpectralDecomposition, Spectrum,
                       spectral_decomposition, spectrum_partition)
from .orbits import (AutomorphismGroup, OrbitPartition, automorphisms,
                     is_orbit_polynomial, orbit_partition)
from .formats import (parse_circulant, parse_edge_list, parse_graph6,
                      parse_graph_spec)
from .report import (AnalysisOptions, Report, analyze, census,
                     report_from_dict, report_to_dict, report_to_json,
                     report_to_text)

__version__ = "0.1.0"
