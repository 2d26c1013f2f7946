"""Query answers in a comparable, JSON-serialisable form."""

from __future__ import annotations

import math
from typing import Any

#: Relative tolerance on a diversified answer's objective value; matches
#: and scores must agree exactly.
OBJECTIVE_REL_TOL = 1e-9


def canonical(result: Any) -> dict:
    """A ``TopKResult`` (or a multi-output dict of them) as plain data."""
    if isinstance(result, dict):
        return {"multi": {str(node): canonical(res) for node, res in sorted(result.items())}}
    return {
        "matches": list(result.matches),
        "scores": sorted([node, value] for node, value in result.scores.items()),
        "objective": result.objective_value,
    }


def same(answer: dict, reference: dict) -> bool:
    """True when ``answer`` equals ``reference`` (both :func:`canonical`)."""
    if "multi" in answer or "multi" in reference:
        got, want = answer.get("multi"), reference.get("multi")
        return (
            got is not None
            and want is not None
            and got.keys() == want.keys()
            and all(same(got[node], want[node]) for node in want)
        )
    if answer["matches"] != reference["matches"] or answer["scores"] != reference["scores"]:
        return False
    got, want = answer["objective"], reference["objective"]
    if got is None or want is None:
        return got is want
    return math.isclose(got, want, rel_tol=OBJECTIVE_REL_TOL)
