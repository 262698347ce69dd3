"""Qudit MUB entanglement toolkit: finite-field bases, entangled pairs,
discrete phase space, and a key-distribution protocol simulator."""

from .entangle import (entangled_mub, exponent_additivity_check, joint_c_measure,
                       measure_first, shift_remote)
from .gf import FieldSpec, GfElem, find_irreducible, is_irreducible, is_prime
from .hilbert import (apply_diag_phase, basis_state, born_sample, inner,
                      project_first, swap_test, tensor)
from .mub import UnbiasednessReport, basis_matrix, mub_state, unbiasedness_report
from .phasespace import (CvLabel, LineIntersection, cv_equal_delta, cv_intersect,
                         cv_shift, cv_split, dwigner1, dwigner2_support, run_cv_round)
from .protocol import (EveStrategy, RoundRecord, SessionConfig, eavesdropper_detected,
                       run_round, session_records, session_summary, summarize)

__version__ = "0.1.0"
