"""cubicalc: exact cubic higher-order difference calculus.

Difference quotient operators on exact polynomial maps, the n-fold groupoids
and categories they generate (pair groupoids, scaled actions, symmetric and
full cubic structures, scaleoids), generalized dual-number arithmetic, and
randomized exact checkers for all the category laws.
"""

__version__ = "0.1.0"

from .rings import QQ, IntegersMod, Rationals, RingError, ring_from_spec
from .polymap import Poly, PolyMap, PolyError, ExactDivisionError
from .parser import ParseError, parse
from .slopes import (SlopeResult, derive_map, full_slope, slope,
                     sym_slope_closed, sym_slope_iterated)
from .extension import (ExtElement, eval_over_extension, ext_add, ext_mul,
                        ext_split)
from .presentation import CoordSchema, EdgeCat, NFoldPresentation, sample
from .checks import (CheckReport, check_edge_category, check_face,
                     check_morphism, check_presentation, reports_ok)
from .constructions import (PullbackC1, finite_part, gfull, gfull_edge_target,
                            gfull_vertex_schema, gsy, gsy_scalar_action,
                            imbed_gsy_into_gfull, pair_groupoid,
                            scaled_action, scaleoid, tangent)
from .laws import (Law, check_homogeneity, check_law_compatibility,
                   check_symmetry, derive_law_full, derive_law_sym,
                   finite_law_from_map, full_vertex_map, ring_goid_structure)
from .twotyped import g_overline

__all__ = [
    "QQ", "IntegersMod", "Rationals", "RingError", "ring_from_spec",
    "Poly", "PolyMap", "PolyError", "ExactDivisionError",
    "ParseError", "parse",
    "SlopeResult", "derive_map", "full_slope", "slope",
    "sym_slope_closed", "sym_slope_iterated",
    "ExtElement", "eval_over_extension", "ext_add", "ext_mul", "ext_split",
    "CoordSchema", "EdgeCat", "NFoldPresentation", "sample",
    "CheckReport", "check_edge_category", "check_face", "check_morphism",
    "check_presentation", "reports_ok",
    "PullbackC1", "finite_part", "gfull", "gfull_edge_target",
    "gfull_vertex_schema", "gsy",
    "gsy_scalar_action", "imbed_gsy_into_gfull", "pair_groupoid",
    "scaled_action", "scaleoid", "tangent",
    "Law", "check_homogeneity", "check_law_compatibility", "check_symmetry",
    "derive_law_full", "derive_law_sym", "finite_law_from_map",
    "full_vertex_map", "ring_goid_structure",
    "g_overline",
    "__version__",
]
