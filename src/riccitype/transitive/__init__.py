"""Construction and certification of simply transitive transvection subgroups."""

from .nilpotent import (
    ClosureReport,
    NilpotentCandidate,
    build_h,
    candidate_matrix_K,
    closure_conditions,
    heisenberg_extension_check,
    moment_map_f,
    normalize_candidate,
    simply_transitive_certificate,
    strongly_hamiltonian_defect,
)
from .iwasawa import IwasawaData, build_a_phi, iwasawa_su1n
from .quaternion import eta, orbit_rank_ts3_evidence, q_left_matrix, q_right_matrix, rotation_matrix

__all__ = [
    "ClosureReport",
    "NilpotentCandidate",
    "build_h",
    "candidate_matrix_K",
    "closure_conditions",
    "heisenberg_extension_check",
    "moment_map_f",
    "normalize_candidate",
    "simply_transitive_certificate",
    "strongly_hamiltonian_defect",
    "IwasawaData",
    "build_a_phi",
    "iwasawa_su1n",
    "eta",
    "orbit_rank_ts3_evidence",
    "q_left_matrix",
    "q_right_matrix",
    "rotation_matrix",
]
