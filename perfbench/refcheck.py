"""Reference checks of benchmark outputs against ``references.json``.

Estimation items must reproduce the recorded selected K, membership and
chosen model exactly. Their two log-likelihoods may be higher than the
reference (a better optimum is not an error) but not lower by more than
``LOGLIK_RTOL`` relative. Monte Carlo replications must reproduce
``k_hat``, ``cls_error`` and the ``failed`` flag exactly.
"""

import json
import os

LOGLIK_RTOL = 1e-6
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


class StaleReferenceError(RuntimeError):
    """The recorded references were made for different workload inputs."""


def load(mode, name, size, path=PATH):
    """Recorded outputs of one workload's pool, keyed by item key."""
    with open(path) as fh:
        refs = json.load(fh)
    try:
        entry = refs[mode][name]
    except KeyError:
        raise StaleReferenceError(f"no references recorded for {mode}/{name}") from None
    if entry["inputs"] != size.stamp():
        raise StaleReferenceError(
            f"references for {mode}/{name} were recorded for {entry['inputs']}, "
            f"the workload now uses {size.stamp()}"
        )
    return entry["items"]


def mismatches(kind, observed, ref):
    """Human-readable differences between an observed output and its reference."""
    if ref is None:
        return ["no reference recorded for this item"]
    if kind == "mc":
        return [
            f"{k}: got {observed[k]!r}, reference {ref[k]!r}"
            for k in ("k_hat", "cls_error", "failed") if observed[k] != ref[k]
        ]
    out = [
        f"{k}: got {observed[k]!r}, reference {ref[k]!r}"
        for k in ("selected_k", "chosen") if observed[k] != ref[k]
    ]
    if observed["membership"] != ref["membership"]:
        diff = sum(a != b for a, b in zip(observed["membership"], ref["membership"]))
        out.append(f"membership differs for {diff} firms")
    for k in ("loglik_unique", "loglik_mixture"):
        floor = ref[k] - LOGLIK_RTOL * abs(ref[k])
        if not observed[k] >= floor:
            out.append(f"{k}: got {observed[k]!r}, below reference {ref[k]!r}")
    return out
