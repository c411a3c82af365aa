"""Finite element solvers for the generalized Burgers'-Huxley equation
with weakly singular memory kernels.

Two spatial discretizations are provided: the Crouzeix-Raviart
nonconforming element (edge-midpoint dofs) and a piecewise-linear
interior-penalty discontinuous Galerkin method with upwinded
convection.  Time stepping is backward Euler with a positivity
preserving product quadrature for the Volterra memory term and an
optional Caputo fractional derivative discretized the same way.
"""

from .mesh import Mesh, generate_rect_mesh, refine_uniform
from .quadrature import QuadratureRule, triangle_rule, edge_rule
from .space_cr import CRSpace
from .space_dg import DGSpace
from .forms import ModelParams
from .kernel import KernelSpec, KernelWeights, memory_weights, caputo_weights, PowerSum
from .solver import TimeGrid, Trajectory, BackwardEulerSolver, stability_check
from .mms import ManufacturedCase, type_one, type_two, traveling_wave, forcing, convergence_study

__version__ = "0.1.0"

__all__ = [
    "Mesh", "generate_rect_mesh", "refine_uniform",
    "QuadratureRule", "triangle_rule", "edge_rule",
    "CRSpace", "DGSpace",
    "ModelParams",
    "KernelSpec", "KernelWeights", "memory_weights", "caputo_weights", "PowerSum",
    "TimeGrid", "Trajectory", "BackwardEulerSolver", "stability_check",
    "ManufacturedCase", "type_one", "type_two", "traveling_wave", "forcing",
    "convergence_study",
]
