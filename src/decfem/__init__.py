"""Structure-preserving discretization on simplicial meshes.

Exact-integer simplicial (co)homology, Whitney-form finite elements,
discrete Hodge operators (mass-matrix and diagonal dual-volume kinds) and
model Poisson solves, with the structural identities of the construction
(vanishing double (co)boundary, interpolation/integration inverse pair,
harmonic dimensions equal to Betti numbers, stiffness coincidence of the
finite element and cochain routes) exposed as testable invariants.
"""

__version__ = "0.1.0"

from .mesh import (
    MeshError,
    MeshParseError,
    MeshValidationError,
    GeometricComplex,
    AbstractComplex,
    load_mesh,
    abstr,
    barycentric_dual_volumes,
    relabel_vertices,
)
from .chains import (
    IntSparseMatrix,
    ComplexMatrices,
    ChainMapError,
    complex_matrices,
    matrices_for,
    apply_chain_map_check,
)
from .homology import (
    SnfResult,
    smith_normal_form,
    betti_numbers,
    torsion_coefficients,
    homology_generators,
)
from .quadrature import QuadratureRule, simplex_rule
from .whitney import (
    Cochain,
    FormField,
    analytic_form,
    whitney_interpolate,
    de_rham_map,
    de_rham_whitney_matrix,
    coboundary_apply,
    cup_product,
    complex_fingerprint,
    cochain_to_json,
    cochain_from_json,
    standard_test_forms,
)
from .hodge import (
    HarmonicBasis,
    galerkin_mass_matrix,
    diagonal_hodge,
    build_hodges,
    codifferential,
    harmonic_basis,
    harmonic_bases,
    matrix_to_coordinate_text,
)
from .poisson import (
    LinearSystem,
    SolverError,
    ManufacturedSolution,
    ConvergenceReport,
    sin_sin_solution,
    affine_solution,
    assemble_poisson,
    boundary_vertex_ids,
    cg_solve,
    uniform_refine,
    cotangent_stiffness,
    l2_and_energy_error,
    convergence_study,
)
from . import meshes

__all__ = [name for name in dir() if not name.startswith("_")]
