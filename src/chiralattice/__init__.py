"""chiralattice: exact interfacial energetics of chiral tetromino systems.

A library for the lattice model of two mirror-image 4-cell molecules:
exact perimeter-type energies and phase classification, exhaustive
verification of the single-phase interior property, finite-size interface
minimization and the homogenized surface densities, closed-form
crystalline densities with Wulff shapes, and the limiting partition
energy on polygonal nine-phase partitions.
"""

__version__ = "0.1.0"

from .molecules import (  # noqa: F401
    BUILTIN_SHAPES,
    PLANE,
    Configuration,
    InconsistentScale,
    InvalidInput,
    Molecule,
    MoleculeShape,
    OverlapError,
    R,
    S,
    UnlabeledShape,
    Window,
    configuration_from_json,
    configuration_to_json,
    perimeter,
    phase_label,
    phase_pattern,
    phase_shape,
    shapes_from_json,
    shapes_to_json,
    validate,
    volume_deficit,
    weighted_perimeter,
)
from .altpairs import FLAT_PAIR, SKEW_PAIR  # noqa: F401
from .coverings import (  # noqa: F401
    CapExceeded,
    LemmaReport,
    MixedPhases,
    NotCovered,
    enumerate_coverings,
    lemma_check,
    verify_interior_phase,
)
from .interfaces import (  # noqa: F401
    ClusterCapExceeded,
    DensityRecord,
    Direction,
    InfeasibleBoundary,
    InterfaceProblem,
    NoPattern,
    SolveResult,
    admissible,
    cluster_min_perimeter,
    direction,
    normalized_density,
    oriented,
    pattern_upper_bound,
    solve_interface,
)
from .gauges import (  # noqa: F401
    GaugePolygon,
    min_envelope,
    mirror,
    phi_closed_form,
    wulff_shape,
)
from .densities import (  # noqa: F401
    DensityModel,
    consistency_check,
    subadditive_bound,
)
from .decomposition import (  # noqa: F401
    PhasePartitionApprox,
    ScaledConfiguration,
    convergence_report,
    decompose,
)
from .rectregions import symdiff_area  # noqa: F401
from .limits import (  # noqa: F401
    InterfaceSegment,
    InvalidPartition,
    PolygonalPartition,
    anchored_admissible,
    extract_interfaces,
    limit_energy,
    rs_lower_bound,
    spin_lower_bound,
)
