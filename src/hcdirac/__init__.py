"""Exact Hecke-Clifford superalgebra engine with Dirac cohomology checks."""

# Defined here, not imported from cli: importing cli from the package would
# make `python -m hcdirac.cli` warn that the module is already loaded.
REPORT_SCHEMA_VERSION = "1.0.0"

from .scalars import Scalar
from .weyl import Root, RootSystemCtx, SignedPerm
from .engine import (
    AlgebraParams,
    AlgElem,
    Algebra,
    algebra_for,
    check_pbw_consistency,
    parity,
    supercommutator,
)
from .dirac import (
    DiracBundle,
    casimirs,
    dirac_bundle,
    dirac_element,
    dressed_generators,
    twisted_reflection,
    verify_identities,
)
from .linalg import Matrix, Subspace
from .partitions import Partition, all_partitions, distinct_partitions, phi_maps
from .modules import (
    ModuleRep,
    check_module_relations,
    induced_module,
    steinberg_module,
)
from .cohomology import CohomologyReport, dirac_cohomology, verify_vogan
from .centers import (
    jucys_murphy,
    jucys_murphy_elements,
    seg_even_center,
    verify_zeta_surjective,
    zeta_on_dirac,
    zeta_on_power_sums,
)

__version__ = "1.0.0"
