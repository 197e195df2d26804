"""Boundary symbol analysis and ray transport for residually stressed
isotropic elastic media.

The package is organized around a Medium (Lame parameters, density, residual
stress, and a bounded domain), boundary covectors on its boundary cylinder,
and three layers built on top: principal and traction symbols, the
characteristic-root / DN-symbol machinery with polarization frames, and
bicharacteristic tracing with lens maps, broken transport, and travel-time
distances.
"""

from .boundary import (BoundaryCovector, CharRoots, CompanionReport, DnSymbol,
                       LopatinskiReport, ModeRoots, QuadratureResult,
                       RegionLabel, ResidueData, SymbolBatch, boundary_covector,
                       char_roots, classify, companion_batch,
                       companion_symbol_check, dn_batch, dn_symbol,
                       lopatinski_margin, principal_symbol_batch,
                       quadrature_batch, residue_batch, residue_matrices,
                       residue_quadrature, sample_boundary_covectors)
from .errors import (ContourError, DegenerateDirectionError,
                     DegenerateMutingError, DistanceError, ElastorayError,
                     EvanescentModeError, FrameConditionError,
                     FrameDegenerateError, GlancingError, GlancingExitError,
                     LopatinskiError, MaxStepsError, MediumFormatError,
                     NotOnBoundaryError, OutOfDomainError,
                     SingularResidueError, StepControlError,
                     UnsupportedPotentialError)
from .medium import (ClassParams, ClassReport, ConstantField, ConstantStress,
                     Domain, GaussianBumpField, Medium, PolynomialField,
                     PotentialStress, check_class_membership, load_medium,
                     medium_digest, medium_from_dict, medium_to_dict,
                     save_medium, stress_from_potential)
from .polarization import (PolarizationFrame, e_symbol, frame_batch,
                           mute_symbol, muting_annihilation_check,
                           muting_residuals, polarization_frame)
from .rays import (DistanceResult, LensMapEntry, RayState, RecoveryRecord,
                   RecoveryReport, ReflectionResult, StepControl,
                   TransportResult, WFEvent, boundary_distance,
                   broken_transport, incidence_covector, launch_state,
                   lens_map_table, probe_fan, recover_lens_maps, reflect,
                   trace_leg, trace_state)
from .symbols import traction_symbol

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
