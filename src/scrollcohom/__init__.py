"""Exact sheaf cohomology, regularity and splitting criteria on scrolls,
the projectivizations P(O(a_0)+...+O(a_n)) of sums of line bundles on P^m.

Everything is computed in exact integer arithmetic.  Every closed form has
an independent second route, checked by the tests and ``verify``: character
counting for line bundles, and in ``complexes``/``linalg`` the
hypercohomology of two resolutions for cotangent powers.  No production
module imports those three; ``characters`` loads with the root, which
re-exports ``character_cohom`` and ``mult_map_rank``.
"""

from .characters import Character, character_cohom, enumerate_contributing, mult_map_rank
from .cohomology import (SplitBundle, bundle_cohom, euler_char, is_globally_generated,
                         line_cohom, omega_cohom, pm_cohom, sym_twists)
from .regularity import (RegularityReport, compare_regularities, is_ms_regular, is_pq_regular,
                         reg, reg_detail, rns_is_pq_regular)
from .scroll import DivClass, Scroll, TwistMap, make_scroll, normalize_twist
from .sheaves import SheafSpec, sheaf_cohom, sheaf_h
from .splitting import SplittingReport, check_theorem, ground_truth_classify
from .windows import Cond, nonvanishing_window

__version__ = "0.1.0"

__all__ = [
    "Character", "character_cohom", "enumerate_contributing",
    "SplitBundle", "bundle_cohom", "euler_char", "is_globally_generated",
    "line_cohom", "mult_map_rank", "omega_cohom", "pm_cohom", "sym_twists",
    "RegularityReport", "compare_regularities", "is_ms_regular", "is_pq_regular",
    "reg", "reg_detail", "rns_is_pq_regular",
    "DivClass", "Scroll", "TwistMap", "make_scroll", "normalize_twist",
    "SheafSpec", "sheaf_cohom", "sheaf_h",
    "SplittingReport", "check_theorem", "ground_truth_classify",
    "Cond", "nonvanishing_window",
    "__version__",
]
