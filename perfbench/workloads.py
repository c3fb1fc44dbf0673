"""The four workloads: what each runs, and the inputs it draws from the seed.

Every workload is a closed loop with one client in one single-threaded
process on the default ``sparse`` engine: the next cell or batch starts only
after the previous record or firings are out.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ClassVar, Dict, List, Optional, Tuple

from . import gen


@dataclass(frozen=True)
class Cells:
    """Campaign cells run by ``CampaignRunner(jobs=1)`` into a ``ResultStore``."""

    algorithm: str
    adversary: str
    n: int
    rounds: Optional[int]
    checks: Tuple[str, ...]
    params: Callable[[random.Random], dict]
    cells: int = 1
    kind: ClassVar[str] = "cells"

    def campaign(self, seed: int) -> dict:
        """The campaign spec (as a dict) for one run seed."""
        rng = random.Random(seed)
        base = {
            "algorithm": self.algorithm,
            "adversary": self.adversary,
            "n": self.n,
            "rounds": self.rounds,
            "adversary_params": self.params(rng),
            "checks": list(self.checks),
        }
        seeds = [rng.randrange(2**31) for _ in range(self.cells)]
        return {"name": "perfbench", "base": base, "seeds": seeds}


@dataclass(frozen=True)
class Serving:
    """``MonitorService.run`` over a ``LogEventSource`` of a generated log."""

    n: int
    structure: str
    settle_rounds: int
    generate: Callable[[int], Tuple[List[str], List[dict], set]]
    kind: ClassVar[str] = "serve"

    def write_inputs(self, seed: int, directory: Path) -> None:
        """Write ``log.jsonl``, ``subscriptions.json`` and ``final_edges.json``."""
        lines, specs, final = self.generate(seed)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "log.jsonl").write_text("\n".join(lines) + "\n")
        (directory / "subscriptions.json").write_text(json.dumps(specs))
        (directory / "final_edges.json").write_text(json.dumps(sorted(final)))


def _flicker_gadget(rng: random.Random) -> dict:
    """The Section 1.3 gadget at seeded node ids.

    The ids keep the default gadget's order (``v < u < w < fillers``), so the
    schedule and every count are the same for every seed; 1,000 settle rounds
    give each repetition enough rounds for a per-round p99.
    """
    v, u, w, *fillers = sorted(rng.sample(range(100_000), 9))
    return {
        "settle_rounds": 1000,
        "v": v,
        "u": u,
        "w": w,
        "filler_u": fillers[:2],
        "filler_w": fillers[2:],
    }


WORKLOADS: Dict[str, object] = {
    "cell-churn": Cells(
        algorithm="triangle",
        adversary="churn",
        n=2000,
        rounds=600,
        checks=("triangle_oracle", "no_ghost_triangles"),
        params=lambda rng: {"inserts_per_round": 10, "deletes_per_round": 10},
        cells=3,
    ),
    "cell-flicker-100k": Cells(
        algorithm="triangle",
        adversary="flicker",
        n=100_000,
        rounds=None,
        checks=("flicker_ghost",),
        params=_flicker_gadget,
    ),
    "serve-local-log": Serving(
        n=10_000,
        structure="triangle",
        settle_rounds=20,
        generate=lambda seed: gen.local_log(
            seed, n=10_000, rounds=1000, ups=6, downs=3, subscriptions=5000
        ),
    ),
    "serve-p2p-log": Serving(
        n=120,
        structure="robust2hop",
        settle_rounds=30,
        generate=lambda seed: gen.p2p_log(
            seed,
            peers=120,
            rounds=1000,
            degree=5,
            shape=1.5,
            online_scale=12,
            offline_scale=1.5,
            subscriptions=300,
        ),
    ),
}
