"""Directed homology of finite acyclic precubical sets.

Chain groups are generated by cube chains, graded by (source, target)
vertex pairs, and carry path-algebra actions; all linear algebra is exact
(rationals or a prime field).
"""

from .exactla import (
    FieldError, Matrix, PrimeField, QQ, RationalField, Subspace,
    field_from_name, induced_on_quotient, kernel_basis, quotient_map,
    rank, solve_in_image,
)
from .precubical import (
    FormatError, PcMorphism, PrecubicalError, PrecubicalSet, SubsetSpec,
    TensorSet, compose, directed_disc, directed_sphere, face_closure,
    from_json, load, realization, save, segment, standard_cube, sub, tensor,
    tensor_morphism,
)
from .cubechain import (
    BoundaryCheckError, ChainError, CubeChain, DirectedCycleError, FormalSum,
    GradedComplex, PairGradedComplex, boundary, build_complex,
    empty_chain, enumerate_chains, enumerate_shuffles, make_chain,
    max_chain_degree, project_shuffle,
)
from .homology import (
    AcyclicityVerdict, CochainComplexTable, HomologyTable, PairHomology,
    acyclicity_check, cochain_dual, homology_of, induced_map,
)
from .scalars import (
    AlgebraError, PathAlgebraIndex, PresentedBimodule, ResolvedBimodule,
    SubcomplexExtension, direct_sum, extend_presented, extend_subcomplex,
    free_bimodule, h_morphism, hcompose, path_algebra, present_chain_module,
    present_homology, re_present, restrict, smash, unit_bimodule,
    zero_bimodule,
)
from .exactseq import (
    ExactnessError, ExactSequenceReport, GoodCoverReport, RelativePairReport,
    SequenceError, check_relative_pair, connecting_map, good_cover_check,
    les_relative, mayer_vietoris, relative_complex, verify_exact,
)
from .ez import (
    ComparisonReport, KunnethReport, TensorComplex, TensorSetting,
    comparison_naturality_check, interleave_tensor, kunneth_report,
    split_chain, split_one_chain, split_zero_chain, swap_steps,
    tensor_comparison_report, zero_chain_count_report,
)

__version__ = "0.1.0"
