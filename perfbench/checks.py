"""Correctness checks.  Each returns a list of failure messages (empty = ok)
so the runner can report every broken invariant of a run at once."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.serving.request import TERMINAL_PHASES, Phase


def check_served(engine, requests, report, label: str) -> list[str]:
    """Invariants of one finished engine run.

    Every request ends in exactly one terminal phase and the report's
    terminal counts partition the request set; output tokens are
    conserved; finished requests produced their full budget; the KV pool
    is fully returned.
    """
    out = []
    open_ids = [r.request_id for r in requests if r.phase not in TERMINAL_PHASES]
    if open_ids:
        out.append(f"{label}: {len(open_ids)} requests ended non-terminal")
    finished = sum(1 for r in requests if r.phase is Phase.FINISHED)
    terminal = (
        report.requests_completed + report.requests_failed
        + report.requests_rejected + report.requests_timed_out
    )
    if terminal != len(requests) or report.requests_completed != finished:
        out.append(
            f"{label}: terminal counts {terminal} (finished "
            f"{report.requests_completed}) do not partition "
            f"{len(requests)} requests ({finished} finished)"
        )
    generated = sum(r.generated for r in requests)
    if report.output_tokens != generated:
        out.append(
            f"{label}: report counts {report.output_tokens} output tokens, "
            f"requests hold {generated}"
        )
    short = [
        r.request_id for r in requests
        if r.phase is Phase.FINISHED and r.generated != r.max_new_tokens
    ]
    if short:
        out.append(f"{label}: {len(short)} finished requests short of budget")
    if not 0 <= report.good_output_tokens <= report.output_tokens:
        out.append(f"{label}: good tokens outside [0, output tokens]")
    if engine.kv.used_blocks != 0 or engine.kv.live_sequences():
        out.append(
            f"{label}: {engine.kv.used_blocks} KV blocks still held by "
            f"{len(engine.kv.live_sequences())} sequences after run"
        )
    return out


def check_same_report(first, other, label: str) -> list[str]:
    """Two runs of the same inputs must report identical results."""
    if first == other:
        return []
    diff = [
        f.name for f in dataclasses.fields(first)
        if getattr(first, f.name) != getattr(other, f.name)
    ]
    return [f"{label}: reports differ in {', '.join(diff)}"]


def check_tokens(generated, reference, label: str) -> list[str]:
    """Generated token ids must equal the reference decode exactly."""
    generated = np.asarray(generated)
    reference = np.asarray(reference)
    if generated.shape == reference.shape and np.array_equal(generated, reference):
        return []
    if generated.shape != reference.shape:
        return [f"{label}: {generated.shape} tokens, reference {reference.shape}"]
    first = int(np.flatnonzero(generated != reference)[0])
    return [
        f"{label}: token {first} is {int(generated[first])}, reference "
        f"{int(reference[first])}"
    ]
