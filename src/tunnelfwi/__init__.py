"""Frequency-domain elastic full-waveform inversion for tunnel reconnaissance.

Simulates elastic wave fields around a truncated 2D tunnel domain with
convolutional absorbing layers and reconstructs P- and S-wave velocity
fields from seismic records via adjoint gradients, L-BFGS and a multi-scale
frequency schedule.
"""

from .adjoint import (Gradient, Misfit, PreconditionMask, accumulate_gradient,
                      adjoint_field, adjoint_source, build_mask, misfit,
                      precondition)
from .analytic import AnalyticQuery, greens_x_analytic, greens_x_polar, hankel2
from .assembly import (AssembledSystem, DiscretizationConfig, DofMap,
                       assemble_point_source, assemble_system, node_areas,
                       shape_functions)
from .config import RunConfig, format_config, load_config, parse_config
from .forward import (ForwardResult, RecordSet, WaveField, evaluate_field,
                      forward_solve, greens_sweep, sample_receivers,
                      solve_records)
from .material import (AmbientProperties, InvalidMaterialError, ModelVector,
                       clamp_to_valid, evaluate_velocities, lame_parameters)
from .mesh import (Mesh, MeshError, PointNotFoundError, Receiver, Source,
                   StationLayout, TunnelGeometry, build_tunnel_mesh,
                   build_unbounded_mesh, locate_point, locate_station,
                   pml_local_coordinate, validate_layout)
from .optimize import (FrequencySchedule, InversionData, InversionSettings,
                       IterationRecord, LbfgsHistory, LineSearchError,
                       OptimizerState, blindtest_schedule, format_log,
                       lbfgs_direction, line_search, minimize_lbfgs, parse_log,
                       run_frequency_group, run_inversion)
from .pml import PmlProfile, damping, stretching
from .signal import (Spectrum, TimeSeries, deconvolve, dft, dft_many,
                     idft_synthesize, ricker, ricker_spectrum, sample_ricker)
from .solver import Factorization, SingularMatrixError, factorization_count, factorize

__version__ = "0.1.0"
