"""Two-tier design-space screening: fluid over everything, event on survivors.

The fluid backend (:mod:`repro.cluster.fluid`) evaluates one deployment
point in ~10 ms where the event engines take seconds — but it is an
approximation with known relative error.  :func:`screen_then_simulate`
turns that asymmetry into a sweep strategy:

1. **Screen** — run the *fluid* backend over the full grid (milliseconds
   per point, so the whole grid is cheap).
2. **Keep** — the fluid Pareto front (min cost, max quality) widened by a
   relative safety ``margin`` sized to the fluid backend's error bound: a
   point is pruned only if some other point weakly dominates it AND beats
   it by more than the margin on at least one axis.  At ``margin=0`` this
   reduces exactly to the weak Pareto front
   (:func:`repro.core.metrics.pareto_front` record mode).
3. **Promote** — re-run only the survivors under the *event* backend, the
   ground truth the sweep's verdict is read from.

The net effect on the paper's lite-vs-big capacity grids: the event engine
simulates a quarter (or less) of the points while the argbest decision
matches the full event sweep — see ``benchmarks/test_perf_fluid.py`` for
the pinned recovery guarantee.

Errored points (infeasible configs) are carried through with their
``"error"`` field, never promoted, and never abort the screen — matching
:mod:`repro.analysis.sweeps` fault isolation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..core.metrics import pareto_front
from ..errors import SpecError
from ..exec.cache import ResultCache
from .sweeps import _run_points, argbest
from .tables import format_table

__all__ = ["ScreeningResult", "screen_then_simulate", "pareto_front"]


def _margin_dominated(
    record: Dict,
    candidates: Sequence[Dict],
    cost: Callable[[Dict], float],
    quality: Callable[[Dict], float],
    margin: float,
) -> bool:
    """Is ``record`` beaten by more than the safety margin by any candidate?

    Weak dominance alone is not enough to prune: the dominating point must
    also be better by a relative ``margin`` on at least one axis, so fluid
    estimation error of up to ~``margin`` cannot evict the true optimum.
    Margins are relative — axes are assumed non-negative (costs, latencies,
    throughputs all are).
    """
    c, q = cost(record), quality(record)
    for other in candidates:
        if other is record:
            continue
        co, qo = cost(other), quality(other)
        if co > c or qo < q:
            continue  # not even weakly dominating
        if margin <= 0.0:
            if co < c or qo > q:
                return True
        elif c > co * (1.0 + margin) or qo > q * (1.0 + margin):
            return True
    return False


@dataclass(frozen=True)
class ScreeningResult:
    """Outcome of a two-tier screen: what was screened, kept, and promoted.

    ``screened`` holds every fluid record (grid order, errored points
    included); ``promoted`` holds the event-backend records of the
    survivors, in screened order.  ``best`` is the event record with the
    best quality — the sweep's verdict, read from ground truth only.
    """

    screened: Tuple[Dict, ...]
    promoted: Tuple[Dict, ...]
    best: Dict
    margin: float
    point_names: Tuple[str, ...]

    @property
    def n_points(self) -> int:
        return len(self.screened)

    @property
    def promotion_fraction(self) -> float:
        """Share of the grid that paid for an event simulation."""
        return len(self.promoted) / max(1, len(self.screened))

    def table(
        self,
        cost: Callable[[Dict], float],
        quality: Callable[[Dict], float],
    ) -> str:
        """Aligned per-point table: fluid estimates, verdict, event truth."""
        promoted_by_point = {
            tuple(r[n] for n in self.point_names): r for r in self.promoted
        }
        best_point = tuple(self.best[n] for n in self.point_names)
        headers = [*self.point_names, "fluid cost", "fluid quality", "tier", "event quality"]
        rows = []
        for record in self.screened:
            point = tuple(record[n] for n in self.point_names)
            event_record = promoted_by_point.get(point)
            if "error" in record:
                rows.append([*point, "error", record["error"][:40], "screened", ""])
                continue
            tier = "promoted" if event_record is not None else "screened"
            if point == best_point:
                tier = "best"
            rows.append(
                [
                    *point,
                    cost(record),
                    quality(record),
                    tier,
                    quality(event_record) if event_record is not None else "",
                ]
            )
        title = (
            f"two-tier screen: {len(self.promoted)}/{len(self.screened)} points promoted "
            f"(margin {self.margin:.0%})"
        )
        return format_table(headers, rows, title=title)


def screen_then_simulate(
    fn: Callable,
    points: Sequence[Dict],
    *,
    cost: Callable[[Dict], float],
    quality: Callable[[Dict], float],
    margin: float = 0.10,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
) -> ScreeningResult:
    """Fluid-screen a grid, event-simulate only the near-Pareto survivors.

    ``fn(backend, *point_values)`` evaluates one grid point under the given
    backend (``"fluid"`` or ``"event"``) — typically a module-level function
    so it pickles under ``workers > 1`` and caches under ``cache``.  Each
    element of ``points`` is an ordered point dict, as produced by the
    :mod:`repro.analysis.sweeps` helpers; values are passed positionally
    after the backend.  ``cost``/``quality`` read the two Pareto axes off a
    finished record (min cost, max quality).

    Returns a :class:`ScreeningResult`; raises
    :class:`~repro.errors.SpecError` when the grid is empty, the margin is
    negative, or every point errors.
    """
    if not points:
        raise SpecError("points must be non-empty")
    if margin < 0.0:
        raise SpecError(f"margin must be non-negative, got {margin}")
    point_names = tuple(points[0].keys())
    screened = _run_points(functools.partial(fn, "fluid"), list(points), workers, cache)
    candidates = [r for r in screened if "error" not in r]
    if not candidates:
        raise SpecError("every screened point errored; nothing to promote")
    survivors = [
        r for r in candidates if not _margin_dominated(r, candidates, cost, quality, margin)
    ]
    promote_points = [{name: r[name] for name in point_names} for r in survivors]
    promoted = _run_points(functools.partial(fn, "event"), promote_points, workers, cache)
    return ScreeningResult(
        screened=tuple(screened),
        promoted=tuple(promoted),
        best=argbest(promoted, quality),
        margin=margin,
        point_names=point_names,
    )
