"""Spectra of invariant form Laplacians on homogeneous torus bundles.

Core objects: structure constants of a Lie algebra in an orthonormal
frame (the single source of truth for d, delta, the form Laplacian and
curvature), mapping-torus and principal-bundle models, exact flat-torus
enumeration, integer lattice tools, and collapse experiment harnesses.
"""

from .errors import (CollapseSpectraError, ConfigInvalid, KTooLarge,
                     NearKernelCutoff, RankAmbiguous, ScaleTooLarge)
from .lie_complex import (FormBasis, SpectrumReport, StructureConstants,
                          change_frame, exterior_derivative, laplacian,
                          spectrum, unimodularity_defect)
from .curvature import (CurvatureTable, frame_curvature_table, oneill_defect,
                        sectional_curvature, solvable_curvature_closed_form)
from .intlat import (AbelianizationReport, betti1_mapping_torus, matrix_exp,
                     smith_normal_form, verify_log)
from .mapping_torus import (CollapseFamily, MappingTorusBundle,
                            collapse_family, invariants_dd,
                            jordan_zero_chain, laplacian1_fast, run_collapse,
                            semisimple_floor, solvable_algebra)
from .torus_bundle import (TorusBundleOverT2, collapse_direction,
                           nil_algebra, predict_spectrum, verify_spectrum)
from .flat_torus import (FlatTorus, ModeSpectrum, diameter, gt_gram,
                         lambda01, odd_multiplicity_check, p_form_spectrum,
                         threshold_check_product)
from .euler_bound import (RhoReport, bound_chain, det_factorization,
                          noninjective_reduce, rho_flat,
                          vol_bound_experiment)

__version__ = "0.1.0"
