"""Random recursive Cantor measures and the spectra of their Krein strings.

The toolkit builds random recursive Cantor measures from finite families
of weighted iterated function systems, counts Dirichlet/Neumann
eigenvalues of the induced discrete strings, solves the deterministic
fixed-point equations for the spectral exponents, and simulates the
attached branching population.
"""

__version__ = "0.1.0"

from .ifs import (
    ContractionMap,
    IfsModel,
    Letter,
    contraction_products,
    lebesgue_model,
    load_model,
    make_letter,
    middle_third_letter,
    model_digest,
    random_model,
    save_model,
    single_letter_model,
    third_fifth_model,
    validate_model,
)
from .tree import RandomTree, StopRule, sample_tree
from .measure import (
    AtomizedMeasure,
    Cell,
    MeasureApprox,
    atomize,
    build_cells,
    leaf_cells,
)
from .stieltjes import (
    CountingSample,
    StieltjesString,
    check_bracketing,
    count_dirichlet,
    count_neumann,
    counting_curve,
    dense_count,
    dense_eigenvalues,
)
from .exponent import (
    EQUAL,
    STRICTLY_LESS,
    ExponentReport,
    LatticeClassification,
    build_report,
    check_equality_condition,
    classify_lattice,
    hausdorff_dimension,
    malthusian_diagnostics,
    nerman_constant_hat_phi,
    solve_homogeneous_exponent,
    solve_recursive_exponent,
)
from .branching import (
    BirthEvent,
    PopulationRun,
    martingale_trace,
    simulate_population,
    z_process,
)
from .estimator import fit_exponent, tail_statistics
