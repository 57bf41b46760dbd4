"""Handle-diagram toolkit for a family of twisted sphere pairs.

Builds the family's Kirby diagrams, takes cyclic covers, computes
integer homology, evaluates the boundary-link concordance obstruction,
and classifies sphere pairs up to equivalence, homotopy, concordance,
and isotopy.
"""

from .covers import (
    CoverData,
    LinkCover,
    cyclic_cover_link,
    deck_image,
    double_cover_diagram,
    lift_sphere_tangles,
    lift_wiring,
)
from .diagrams import (
    AnnularComponent,
    AnnularLink,
    BicoloredLink,
    BraidWord,
    ColoredTangle,
    Crossing,
    DiagramError,
    bicolored_linking,
    braid_closure,
    braid_closure_link,
    half_twist_tangle,
    mirror_image,
    normalize_to_writhe,
    reidemeister,
    reverse_mirror,
    stack_tangles,
    swap_colors,
)
from .homology import AbelianGroup, IntMatrix, boundary_h1, cokernel, h1, smith_normal_form
from .homotopy import (
    CrossedClass,
    HomotopyTrace,
    Relation,
    classify,
    connecting_homotopy,
    crossed_class,
    cycle_validate,
    lightbulb_check,
    twist_homotopy,
)
from .kirby import (
    KirbyDiagram,
    SphereEmbedding,
    TwoHandle,
    build_diagram,
    double,
    ensure_attaching,
    euler_characteristic,
    family_parameters,
    handle_slide,
    sphere_square,
    sphere_tangle,
    standard_sphere,
)
from .obstruction import (
    ClosedCaseData,
    ConcordanceSlice,
    NotHomotopic,
    assemble_link,
    closed_case_linking,
    concordance_obstruction,
    model_slice,
    slice_linking,
)
from .render import render
from .serialize import FormatError, dumps, load_diagram

__version__ = "0.1.0"
