"""sepcat: separability and Hochschild-Mitchell cohomology of finite
K-linear categories, in exact arithmetic over Q or F_p."""

from .exactalg import Field, Matrix, QQ
from .errors import BudgetExceededError, InternalCheckError
from .lincat import (
    FinLinCat,
    FiniteCatPresentation,
    ValidationReport,
    classify_presentation,
    linearize,
    validate_category,
    generating_labels,
)
from .cmod import (
    Bimodule,
    BimoduleMap,
    LeftModule,
    ShortExactSeq,
    canonical_bimodule,
    character_left_module,
    kernel_of,
    random_bimodule,
    random_left_module,
    representable_bimodule,
    representable_left_module,
    tensor_square,
    validate_module,
    zero_bimodule,
)
from .separability import (
    EIVerdict,
    SectionResult,
    SeparabilityFamily,
    ZelinskyReport,
    ei_predict,
    module_section,
    reduce_family,
    separability_system,
    solve_separability,
    verify_family,
    zelinsky_report,
)
from .cohomology import (
    CochainComplex,
    CohomologyResult,
    LesReport,
    ObstructionResult,
    build_hm_complex,
    cohomology_dims,
    les_analysis,
    obstruction_cocycle,
)

__version__ = "0.1.0"
