"""``NetworkMeasurer.schedule_rounds`` of commit ``958efb1`` — the oracle.

Until PR 22 the campaign's schedule *was* this list of lists of name
pairs, and ``measure`` flattened it again.  The measurer now schedules on
positions (three arrays: source, destination, round) and
``schedule_rounds`` is the name view of that; this module keeps the old
function, moved in verbatim, as the reference
``tests/test_campaign_batch.py`` holds both to.  What was
``self.plan.parallelism`` is ``limit``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import MeasurementError


def parent_schedule_rounds(
    vm_names: Sequence[str],
    pairs: Optional[Sequence[Tuple[str, str]]],
    limit: int,
) -> List[List[Tuple[str, str]]]:
    if pairs is None:
        pending = [(s, d) for s in vm_names for d in vm_names if s != d]
    else:
        known = set(vm_names)
        for src, dst in pairs:
            if src == dst or src not in known or dst not in known:
                raise MeasurementError(
                    f"cannot schedule pair ({src!r}, {dst!r})"
                )
        pending = list(dict.fromkeys(pairs))  # dedupe, keep order
    if limit == 1:
        return [[pair] for pair in pending]
    rounds: List[List[Tuple[str, str]]] = []
    while pending:
        busy: set = set()
        batch: List[Tuple[str, str]] = []
        rest: List[Tuple[str, str]] = []
        for pair in pending:
            src, dst = pair
            if len(batch) < limit and src not in busy and dst not in busy:
                batch.append(pair)
                busy.add(src)
                busy.add(dst)
            else:
                rest.append(pair)
        rounds.append(batch)
        pending = rest
    return rounds
