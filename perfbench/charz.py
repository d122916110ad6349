"""The cold adaptive library characterization of the ``paper_flow`` workload.

Each round characterizes the 69-cell / 370-entry NanGate15 library with
the default ``AdaptiveConfig()`` and no coefficient cache (the fixed-grid
flow runs cold in every set-up).  No engine runs here; the time goes to
the SPICE stand-in, fitting and cross-validated order selection, and the
SPICE evaluation count is exact.  The adaptive fit's accuracy is checked
on points no fit sampled.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Tuple

import numpy as np

from repro.cells.library import CellLibrary
from repro.core.characterization import AdaptiveConfig, characterize_library
from repro.core.parameters import ParameterSpace
from repro.electrical.spice import AnalyticalSpice

from perfbench.common import Round, derive_seed

#: Held-out operating points per library entry for the accuracy check.
HELD_OUT_POINTS = 24

#: Worst relative delay error the adaptive fit may show on them: the
#: fixed-grid fit's own worst error times this, or ``ERROR_FLOOR``.
ERROR_SLACK = 1.25
ERROR_FLOOR = 0.02

SMOKE_CELLS = 3


class Charz:
    """Cold adaptive characterization rounds and their accuracy check."""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        #: One instance for every round, so a traced run can wrap it.
        self.spice = AnalyticalSpice()
        self.adaptive = None
        self.worst_error = None

    def setup(self, library: CellLibrary, fixed) -> None:
        """``fixed`` is the set-up's cold fixed-grid characterization."""
        self.library = (CellLibrary("smoke", list(library)[:SMOKE_CELLS])
                        if self.smoke else library)
        self.fixed = fixed

    def run_round(self, out: Round) -> None:
        before = self.spice.delay_evaluations
        start = time.perf_counter()
        self.adaptive = characterize_library(self.library, self.spice,
                                             adaptive=AdaptiveConfig())
        seconds = time.perf_counter() - start
        out.attempted += 1
        out.add("charz_adaptive_s", seconds)
        out.add("charz_spice_evals", self.spice.delay_evaluations - before)

    def held_out_error(self, entries: Iterable) -> float:
        """Worst relative delay error of the fits at seeded random points.

        The points are drawn uniformly over the parameter space, so none
        lies on a sampled grid line; the SPICE stand-in gives the truth.
        """
        rng = np.random.default_rng(derive_seed(self.seed, "charz", "held"))
        reference = AnalyticalSpice(self.spice.model.corner)
        space = ParameterSpace.paper_default()
        worst = 0.0
        for entry in entries:
            cell = self.library[entry.cell_name]
            pin = next(p for p in cell.pins if p.name == entry.pin_name)
            points = np.column_stack([
                rng.uniform(space.v_min, space.v_max, HELD_OUT_POINTS),
                rng.uniform(space.c_min, space.c_max, HELD_OUT_POINTS)])
            nominal_points = np.column_stack([
                np.full(HELD_OUT_POINTS, space.v_nom), points[:, 1]])
            truth = reference.delays_at(cell, pin, entry.polarity, points)
            nominal = reference.delays_at(cell, pin, entry.polarity,
                                          nominal_points)
            # The fit is the voltage/load deviation kernel of Eq. 9; its
            # delay is taken against the true nominal delay at that load.
            predicted = nominal * (1.0 + entry.deviation(points[:, 0],
                                                         points[:, 1]))
            worst = max(worst, float(np.max(np.abs(predicted / truth - 1.0))))
        return worst

    def check(self) -> Tuple[int, List[str]]:
        """Adaptive accuracy on held-out points vs the fixed grid's."""
        names = [cell.name for cell in self.library]
        fixed = self.held_out_error(
            entry for name in names for entry in self.fixed.cells[name].pins)
        adaptive = self.held_out_error(self.adaptive.all_entries())
        self.worst_error = adaptive
        limit = max(ERROR_SLACK * fixed, ERROR_FLOOR)
        mismatches = []
        if not adaptive <= limit:
            mismatches.append(
                f"adaptive worst held-out error {adaptive:.4f} exceeds "
                f"{limit:.4f} (fixed grid: {fixed:.4f})")
        return 1, mismatches
