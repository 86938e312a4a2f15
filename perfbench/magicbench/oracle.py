"""Correctness oracle for served answers.

Reference answers are computed in-process before the server starts: a
family label from ``Magic.predict`` on the published archive for every
well-formed listing, or the failure kind (``"parse"``) for a malformed
one.  An answer fails when:

* it is a transport error, a timeout, or any 5xx (503 included);
* a malformed listing is not answered 422 with kind ``parse``;
* a well-formed listing is not answered 200;
* a non-similar answer carries a label other than the reference;
* an answer carries a similarity score without the ``similar`` flag,
  or a ``similar`` answer lacks its score or scores below the threshold.

A flagged similar answer may carry its near-duplicate's label: that is
the similarity tier's documented contract.
"""

from __future__ import annotations

from typing import Optional, Union

#: Reference answer: an int label, or a failure-kind string.
Reference = Union[int, str]


def judge(reference: Reference, status: Optional[int], payload: Optional[dict],
          error: Optional[str], threshold: Optional[float]) -> Optional[str]:
    """``None`` when the answer is correct, else the reason it failed."""
    if error is not None or status is None:
        return f"transport: {error}"
    if status >= 500:
        return f"status {status}"
    if not isinstance(payload, dict):
        return f"status {status} with a non-JSON body"
    if isinstance(reference, str):
        kind = (payload.get("error") or {}).get("kind")
        if status != 422 or kind != reference:
            return f"expected 422 {reference}, got {status} {kind}"
        return None
    if status != 200:
        return f"expected 200, got {status}"
    if payload.get("similar"):
        similarity = payload.get("similarity")
        if similarity is None:
            return "similar answer without a similarity score"
        if threshold is not None and similarity < threshold:
            return f"similar answer scored {similarity} below {threshold}"
        return None
    if "similarity" in payload:
        return "similarity score on an answer not flagged similar"
    if payload.get("label") != reference:
        return f"label {payload.get('label')} != reference {reference}"
    return None
