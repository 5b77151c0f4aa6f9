"""fractomo: a numerical laboratory for nonlocal optical tomography.

Forward solves of the exterior-value problem for the weighted fractional
diffusion operator with absorption, exterior Dirichlet-to-Neumann maps,
the reduction to a fractional Schroedinger problem, pointwise exterior
recovery of the diffusion, and the constructive non-uniqueness pair that
reproduces background DN data with a nonvanishing absorption.
"""

__version__ = "0.1.0"

from .assembly import (
    Coefficients,
    KernelParams,
    SymForm,
    conductivity_form,
    gagliardo_form,
    mass_matrix,
    normalization_constant,
    potential_form,
)
from .counterexample import CounterexamplePair, build_pair, verify_nonuniqueness
from .dnmap import DNMatrix, DNOperator, solution_relation_residual
from .mesh import Box, Mesh, Region, build_mesh, region_dofs, support_dofs
from .reconstruction import (
    BumpSequence,
    bump_sequence,
    exterior_reconstruct,
    potential_decay_check,
)
from .reduction import (
    dn_difference_decomposition,
    dn_transfer_residual,
    liouville_residual,
    reduced_potential_form,
    schrodinger_form,
)
from .solver import (
    DirichletSolution,
    FactorizedSystem,
    coercivity_bound,
    multiplier_norm_estimate,
    poincare_constant,
)
from .spectral import spectral_frac_laplacian

__all__ = [
    "Box", "BumpSequence", "Coefficients", "CounterexamplePair",
    "DirichletSolution", "DNMatrix", "DNOperator", "FactorizedSystem",
    "KernelParams", "Mesh", "Region", "SymForm",
    "build_mesh", "build_pair", "bump_sequence", "coercivity_bound",
    "conductivity_form", "dn_difference_decomposition",
    "dn_transfer_residual", "exterior_reconstruct",
    "gagliardo_form", "liouville_residual", "mass_matrix",
    "multiplier_norm_estimate", "normalization_constant", "poincare_constant",
    "potential_decay_check", "potential_form", "reduced_potential_form",
    "region_dofs", "schrodinger_form", "solution_relation_residual",
    "spectral_frac_laplacian", "support_dofs",
    "verify_nonuniqueness",
]
