"""Exact string topology of global quotient orbifolds.

Finite groups and G-sets, discrete-torsion cocycles, sector string rings in
the discrete model, the marked chord-diagram operad with its cactus
correspondence and G-decorated extension, and graded-commutative rings with a
Batalin-Vilkovisky axiom checker.
"""

from .chords import (
    Cactus,
    DiagramError,
    MDClass,
    canonical_md,
    compose,
    from_cactus,
    identity_md,
    md_from_data,
    parse_diagram,
    random_md,
    regions_report,
    relabel,
    to_cactus,
    validate_diagram,
)
from .cyclo import Cyclo, cyclotomic_poly, euler_phi
from .gchords import (
    GDiagram,
    HolonomyError,
    decorate,
    enumerate_gmd,
    g_compose,
    g_identity,
    incoming_holonomy,
    outgoing_holonomy,
    random_gdiagram,
)
from .graded import (
    BVData,
    GradedPresentation,
    basis_window,
    bracket,
    bv_check,
    graded_window_bv,
    lens_ring,
    multiply,
    ring_window_bv,
    sphere_quotient_ring,
)
from .groups import (
    ConjugacyData,
    FiniteGroup,
    GSet,
    GroupError,
    bun_holonomy_action,
    catalog_group,
    catalog_subgroup,
    conjugacy_classes,
    coset_gset,
    fixed_points,
    group_from_perm_gens,
    parse_group,
    parse_gset,
    point_gset,
    translation_gset,
)
from .phases import (
    CocycleError,
    Phase,
    TorsionCocycle,
    TwoCocycle,
    catalog_cocycle,
    coboundary,
    discrete_torsion,
    make_cocycle,
    parse_cocycle,
    restrict_to_centralizer,
    trivial_cocycle,
)
from .sector import (
    MoritaReport,
    SectorError,
    SectorRing,
    dw_frobenius,
    morita_compare,
    orbifold_string_ring,
    sector_basis,
    twisted_center,
)

__version__ = "0.1.0"
