"""Privacy/utility measurement: masked fraction, compression loss, sweeps."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Document, _write_csv, apply_mask, check_mask, deflate_size
from .deid import RedactionResult
from .reid import ensemble_evaluate


@dataclass
class UtilityReport:
    percent_masked: float
    information_loss: float


@dataclass
class ParetoPoint:
    method: str
    control: float
    reid_rate: float
    pct_masked: float
    info_loss: float
    success_rate: float


def percent_masked(mask, document: Document) -> float:
    """Share of masked tokens, in percent, over all tokens."""
    arr = check_mask(mask, len(document))
    return 100.0 * float(arr.sum()) / len(document)


def information_loss(document: Document, mask) -> float:
    """Percent reduction in compressed size after deleting masked words.

    The baseline is the document's own token rendering, so an all-zero mask
    yields exactly 0. Clamped to [0, 100].
    """
    original_size = deflate_size(" ".join(document.surfaces()))
    redacted_size = deflate_size(apply_mask(document, mask, mode="delete"))
    loss = 100.0 * (1.0 - redacted_size / original_size)
    return float(min(100.0, max(0.0, loss)))


def utility_report(documents: Sequence[Document], masks: Sequence) -> UtilityReport:
    """Mean utility metrics over a set of redactions."""
    if len(documents) != len(masks) or not documents:
        raise ValueError("documents and masks must be equal-length and nonempty")
    pct = [percent_masked(m, d) for d, m in zip(documents, masks)]
    loss = [information_loss(d, m) for d, m in zip(documents, masks)]
    return UtilityReport(
        percent_masked=float(np.mean(pct)), information_loss=float(np.mean(loss))
    )


def pareto_sweep(
    method: str,
    controls: Sequence[float],
    records: Sequence[tuple[str, Document, int]],
    results: Sequence[Sequence[RedactionResult]],
    members: Mapping[str, object],
) -> list[ParetoPoint]:
    """One privacy/utility point per control value, in the order of `controls`.

    Records are (doc_id, document, true_index) triples, and `results[i][c]`
    is record i's redaction at `controls[c]`. Reidentification is measured
    by the ensemble over all redacted records; utility means are taken over
    all records, with search success rate reported separately.
    """
    if not controls:
        raise ValueError("need at least one control value")
    if len(results) != len(records) or any(len(row) != len(controls) for row in results):
        raise ValueError("results need one row per record and one entry per control")
    points = []
    for c, control in enumerate(controls):
        column = [row[c] for row in results]
        eval_records = [
            (doc_id, document, result.mask, true_index)
            for (doc_id, document, true_index), result in zip(records, column)
        ]
        report = ensemble_evaluate(members, eval_records)
        utility = utility_report([document for _, document, _ in records], [r.mask for r in column])
        success = 100.0 * float(np.mean([r.success for r in column]))
        points.append(
            ParetoPoint(
                method=method,
                control=float(control),
                reid_rate=report.rate,
                pct_masked=utility.percent_masked,
                info_loss=utility.information_loss,
                success_rate=success,
            )
        )
    return points


def write_pareto_csv(points: Sequence[ParetoPoint], path: str | Path) -> None:
    """One header row of `ParetoPoint`'s field names, then one row per point; numbers as float reprs."""
    names = [f.name for f in fields(ParetoPoint)]
    _write_csv(path, names, ([getattr(p, name) for name in names] for p in points))
