"""Constant negative curvature surfaces from loop group factorization.

The pipeline runs potentials -> half-frame integration -> pointwise
factorization -> reconstruction, with an analysis suite that checks the
resulting surfaces against their defining identities and two independent
reference routes (a direct sine-Gordon solver and the closed-form
pseudo-sphere). Every loop on the way is a packed SU(2) real-form loop (see
loops), and birkhoff_split is the one factorization.
"""

from ._threads import apply_thread_env

apply_thread_env()

from .loops import (DEFAULT_TRUNC, MAX_DEGREE, SingularSeriesError,
                    TruncationOverflowError)
from .potentials import (DomainError, PotentialSpec, eta_minus, eta_plus,
                         from_json, preset_by_name, to_json)
from .frames import (ConnectionField, ConnectionShapeError, FrameField,
                     GridError, HalfFrameFamily, SplitError, birkhoff_split,
                     build_frame_field, extract_connection,
                     integrate_half_frame, truncation_tail, zcc_residual)
from .sym import (E1, E2, E3, StructureError, SurfaceGrid, su2_to_r3,
                  sym_immersion)
from .analysis import (GeometryReport, angle_field, asymptotic_torsion,
                       complete_frame, front_from_normal, fundamental_forms,
                       harmonicity_residual, normal_sign_comparison,
                       procrustes_align, recover_boundary_angles,
                       sine_gordon_residual, tangent_frame)
from .reparam import GraphPatch, PatchError, graph_patch, graph_patch_evaluated
from .oracles import (ConvergenceError, GoursatSolution, goursat_solve,
                      pseudosphere_closed_form, pseudosphere_tangents)

__version__ = "0.1.0"
