"""Directed homology of finite acyclic precubical sets.

Chain groups are generated by cube chains, graded by (source, target)
vertex pairs, and carry path-algebra actions; all linear algebra is exact
(rationals or a prime field).

Importing the package runs the core: `exactla`, `precubical`, `cubechain`
and `homology`, all that `homology`, `cohomology`, `validate` and
`generate` need.  `scalars`, `exactseq` and `ez` are listed in
``sys.modules`` at once, so tools that walk the package's modules there
(the benchmark's tracer) find all seven, but each is compiled and run on
first use (`importlib.util.LazyLoader`).  The names exported from them
resolve through the module `__getattr__` (PEP 562) and `__dir__`, from
one table.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from .exactla import (
    ExactnessError, FieldError, Matrix, PrimeField, QQ, RationalField, SequenceError,
    Subspace, field_from_name, induced_on_quotient, kernel_basis, quotient_map, rank,
    solve_in_image,
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

__version__ = "0.1.0"

_DEFERRED = {
    "scalars": (
        "AlgebraError", "PathAlgebraIndex", "PresentedBimodule", "ResolvedBimodule",
        "SubcomplexExtension", "direct_sum", "extend_presented", "extend_subcomplex",
        "free_bimodule", "h_morphism", "hcompose", "path_algebra", "present_chain_module",
        "present_homology", "re_present", "restrict", "smash", "unit_bimodule",
        "zero_bimodule",
    ),
    "exactseq": (
        "ExactSequenceReport", "GoodCoverReport", "RelativePairReport",
        "check_relative_pair", "connecting_map", "good_cover_check", "les_relative",
        "mayer_vietoris", "relative_complex", "verify_exact",
    ),
    "ez": (
        "ComparisonReport", "KunnethReport", "TensorComplex", "TensorSetting",
        "comparison_naturality_check", "interleave_tensor", "kunneth_report",
        "split_chain", "split_one_chain", "split_zero_chain", "swap_steps",
        "tensor_comparison_report", "zero_chain_count_report",
    ),
}
_OWNER = {name: module for module, names in _DEFERRED.items() for name in names}


def _deferred(module: str):
    """The submodule `module`, listed in sys.modules, to be run on first use."""
    spec = find_spec(f"{__name__}.{module}")
    spec.loader = LazyLoader(spec.loader)
    sys.modules[spec.name] = lazy = module_from_spec(spec)
    spec.loader.exec_module(lazy)
    return lazy


scalars, exactseq, ez = map(_deferred, _DEFERRED)


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})
