"""Feature learning through the SVD of asymmetric kernel matrices."""

__version__ = "0.1.0"

from . import datasets, errors, evaluation, kernels, linalg, parallel  # noqa: F401
from .compat import CompatMatrix, make_compat
from .kernels import (
    DataSources,
    KernelSpec,
    LazyKernelSource,
    MatrixSource,
    center,
    center_oos,
    default_gamma,
    kernel_matrix,
)
from .ksvd import (
    Embedding,
    KsvdModel,
    fit,
    load_model,
    save_model,
    transform,
    transform_oos,
)
from .linalg import (
    SvdResult,
    svd_exact,
    svd_randomized,
    svd_truncated,
)
from .nystrom import (
    NystromConfig,
    NystromResult,
    SolveReport,
    asym_nystrom,
    eta_accuracy,
    solve_to_tolerance,
    sym_nystrom,
)

__all__ = [
    "__version__",
    "CompatMatrix",
    "DataSources",
    "Embedding",
    "KernelSpec",
    "KsvdModel",
    "LazyKernelSource",
    "MatrixSource",
    "NystromConfig",
    "NystromResult",
    "SolveReport",
    "SvdResult",
    "asym_nystrom",
    "center",
    "center_oos",
    "datasets",
    "default_gamma",
    "errors",
    "eta_accuracy",
    "evaluation",
    "fit",
    "kernel_matrix",
    "kernels",
    "linalg",
    "load_model",
    "make_compat",
    "save_model",
    "solve_to_tolerance",
    "svd_exact",
    "svd_randomized",
    "svd_truncated",
    "sym_nystrom",
    "transform",
    "transform_oos",
]
