"""Checks on everything the benchmarked commands write.

Every output row is checked after its command has been timed and with
tracing off. A document that fails any check counts as failed; one failed
document fails the run.

The privacy certificate is re-audited independently of the search that
issued it: a `success=true` sidecar row must leave its true profile ranked
below K under the guide checkpoint, `rank_of(guide.distribution(doc, mask),
true_index) > k`.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter

import numpy as np

PARETO_VALUES = ("reid_rate", "pct_masked", "info_loss", "success_rate")


class Checker:
    """Tallies checked documents, failed documents and the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, attempted: int, failures: dict[str, str], weight: int = 1) -> None:
        """Add `attempted` documents; each failure key stands for `weight` of them."""
        self.attempted += attempted
        self.failed += min(attempted, weight * len(failures))
        self.problems += [f"{what}: {key}: {reason}" for key, reason in list(failures.items())[:5]]

    def run(self, what: str, attempted: int, check, weight: int = 1) -> None:
        """Run one check; an output too malformed to inspect fails every document."""
        try:
            failures = check()
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            self.record(what, attempted, {"output": f"unreadable ({type(exc).__name__}: {exc})"}, attempted)
            return
        self.record(what, attempted, failures, weight)


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    if not all(isinstance(row, dict) for row in rows):
        raise ValueError("row is not a JSON object")
    return rows


def mask_problem(mask, n: int) -> str | None:
    """A mask must be a list of 0/1 integers as long as its document."""
    if not isinstance(mask, list) or len(mask) != n:
        return f"mask length {len(mask) if isinstance(mask, list) else type(mask).__name__} != {n}"
    if any(type(b) is not int or b not in (0, 1) for b in mask):
        return "mask is not 0/1"
    return None


def certificate_problem(guide, rank_of, document, mask, true_index: int, k: int) -> str | None:
    """None when the mask is well formed and the guide ranks the true profile below K."""
    problem = mask_problem(mask, len(document))
    if problem:
        return problem
    rank = rank_of(guide.distribution(document, np.asarray(mask, dtype=np.int8)), true_index)
    return None if rank > k else f"certificate fails: guide rank {rank} <= k={k}"


def _once_each(ids, expected_ids) -> dict[str, str]:
    counts = Counter(ids)
    failures = {i: f"appears {counts[i]} times" for i in expected_ids if counts[i] != 1}
    failures.update({i: "not an input document" for i in counts if i not in set(expected_ids)})
    return failures


def check_redaction(redacted_path, sidecar_path, records, guide, rank_of, k: int):
    """Redacted corpus plus sidecar from `deident deidentify`.

    records are (doc_id, Document, true_index) for every input document.
    Returns the failed documents with their reasons.
    """
    rows = read_jsonl(redacted_path)
    sidecar = read_jsonl(sidecar_path)
    expected = [doc_id for doc_id, _, _ in records]
    failures = _once_each([r.get("id") for r in rows], expected)
    for doc_id, problem in _once_each([s.get("id") for s in sidecar], expected).items():
        failures.setdefault(doc_id, f"sidecar: {problem}")
    row_by_id = {r.get("id"): r for r in rows}
    side_by_id = {s.get("id"): s for s in sidecar}
    for doc_id, document, true_index in records:
        if doc_id in failures:
            continue
        row, side = row_by_id[doc_id], side_by_id[doc_id]
        problem = mask_problem(row.get("mask"), len(document))
        if problem is None and side.get("mask") != row["mask"]:
            problem = "sidecar mask differs from redacted mask"
        if problem is None and (row.get("k") != k or side.get("k") != k):
            problem = f"k is not {k}"
        if problem is None and not isinstance(side.get("success"), bool):
            problem = "success is not a boolean"
        if problem is None and side["success"]:
            problem = certificate_problem(guide, rank_of, document, row["mask"], true_index, k)
        if problem:
            failures[doc_id] = problem
    return failures


def redaction_summary(sidecar_path) -> dict[str, float]:
    sidecar = read_jsonl(sidecar_path)
    return {
        "success_pct": 100.0 * float(np.mean([bool(s["success"]) for s in sidecar])),
        "masked_pct": float(np.mean([100.0 * sum(s["mask"]) / len(s["mask"]) for s in sidecar])),
    }


def tamper_self_check(sidecar_path, records, guide, rank_of, k: int) -> str | None:
    """Show that the certificate audit can fire.

    Takes the first certified document whose search masked at least one
    word and undoes its redaction (an all-zero mask, where the search had to
    start because the profile ranked within K) and, separately, drops the
    mask's last bit. Both must fail the audit. Returns a problem, or None.
    """
    side_by_id = {s.get("id"): s for s in read_jsonl(sidecar_path)}
    for doc_id, document, true_index in records:
        side = side_by_id.get(doc_id)
        if not side or side.get("success") is not True or side.get("steps", 0) < 1:
            continue
        mask = side["mask"]
        if certificate_problem(guide, rank_of, document, [0] * len(mask), true_index, k) is None:
            return f"{doc_id}: an unmasked document passed the certificate audit"
        if certificate_problem(guide, rank_of, document, mask[:-1], true_index, k) is None:
            return f"{doc_id}: a truncated mask passed the certificate audit"
        return None
    return "no certified redaction with a masked word to tamper with"


def check_evaluation(report_path, utility_path, redacted_path, n_profiles: int):
    """Ensemble report and utility report from `deident evaluate`."""
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    with open(utility_path, encoding="utf-8") as fh:
        utility = json.load(fh)
    rows = read_jsonl(redacted_path)
    expected = [r["id"] for r in rows]
    per_doc = report["per_doc"]
    failures = _once_each([d.get("id") for d in per_doc], expected)
    for doc in per_doc:
        ranks = doc.get("ranks")
        if not isinstance(ranks, dict) or not ranks:
            failures[doc.get("id")] = "no member ranks"
        elif any(type(r) is not int or not 1 <= r <= n_profiles for r in ranks.values()):
            failures[doc.get("id")] = f"rank outside 1..{n_profiles}"
        elif doc.get("reidentified") is not any(r == 1 for r in ranks.values()):
            failures[doc.get("id")] = "reidentified flag disagrees with ranks"
    rate = 100.0 * sum(bool(d.get("reidentified")) for d in per_doc) / max(1, len(per_doc))
    if not math.isclose(report["rate"], rate, rel_tol=1e-9, abs_tol=1e-9):
        failures["rate"] = f"report rate {report['rate']} != {rate}"
    masked = float(np.mean([100.0 * sum(r["mask"]) / len(r["mask"]) for r in rows]))
    if not math.isclose(utility["percent_masked"], masked, rel_tol=1e-9, abs_tol=1e-9):
        failures["percent_masked"] = f"utility {utility['percent_masked']} != {masked}"
    loss = utility["information_loss"]
    if not (isinstance(loss, (int, float)) and math.isfinite(loss) and 0.0 <= loss <= 100.0):
        failures["information_loss"] = f"{loss!r} outside [0, 100]"
    return failures


def check_pareto(path, method: str, controls: list[float]):
    """Pareto CSV from `deident sweep`: one finite, in-range row per control."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(controls):
        return {str(c): f"{len(rows)} rows for {len(controls)} controls" for c in controls}
    failures = {}
    for row, control in zip(rows, controls):
        values = [float(row[name]) for name in PARETO_VALUES]
        if row["method"] != method or float(row["control"]) != control:
            failures[str(control)] = f"row is {row['method']}/{row['control']}"
        elif not all(math.isfinite(v) and 0.0 <= v <= 100.0 for v in values):
            failures[str(control)] = f"value outside [0, 100]: {values}"
    return failures


def check_training(log_path, checkpoint_path, epochs: int):
    """Training log and checkpoints from `deident train`."""
    with open(log_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    failures = {}
    if len(rows) != epochs:
        failures["log"] = f"{len(rows)} log rows for {epochs} epochs"
    for row in rows:
        loss, acc = float(row["mean_loss"]), float(row["heldout_acc_30"])
        if not (math.isfinite(loss) and 0.0 <= acc <= 1.0):
            failures[f"epoch {row['epoch']}"] = f"loss {loss}, heldout_acc_30 {acc}"
    for path in (checkpoint_path, f"{checkpoint_path}.best"):
        try:
            with open(path, "rb") as fh:
                if not fh.read(1):
                    failures[str(path)] = "empty checkpoint"
        except OSError as exc:
            failures[str(path)] = str(exc)
    return failures


def final_heldout_acc(log_path) -> float:
    with open(log_path, newline="", encoding="utf-8") as fh:
        return float(list(csv.DictReader(fh))[-1]["heldout_acc_30"])
