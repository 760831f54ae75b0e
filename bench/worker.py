"""One proof check in a fresh process, driven by ``run.py``.

Protocol, one JSON object per line on stdout:

- ``{"ready": true}`` once ``hflcyc`` is imported;
- then it reads the ``.hflp`` text from stdin up to end of file, checks it,
  and prints ``{"result": {...}}``, with the process's peak memory.

With ``--trace 1`` the same check runs, but the public calls it is made of
are wrapped so that each is timed on its own.  Before each call it prints
``{"begin": stage}``, and after it ``{"span": stage, "start": s, "end": s,
"counts": {...}}``, with times in seconds from the start of the check.
``run.py`` keeps what it receives, so a check killed at its deadline still
shows the stage it was in.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import hflcyc.gtc as gtc
import hflcyc.proofio as proofio
from hflcyc.gtc import Accepted, GtcUnknown
from hflcyc.trace import Lasso


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _lasso(lasso: Lasso | None) -> list | None:
    return None if lasso is None else [list(lasso.prefix), list(lasso.cycle)]


def check(text: str) -> dict:
    """What ``hflcyc check FILE`` does: load, check, explain a rejection."""
    start = time.perf_counter()
    pp = proofio.loads_preproof(text)
    try:
        result = gtc.check_cyclic_proof(pp)
    except GtcUnknown:
        return {"verdict": "unknown", "check_s": time.perf_counter() - start}
    lasso = None
    if not isinstance(result, Accepted):
        lasso = result.lasso
        if lasso is not None:
            gtc.counterexample_report(pp, lasso)
    return {"verdict": "accepted" if isinstance(result, Accepted) else "rejected",
            "check_s": time.perf_counter() - start, "lasso": _lasso(lasso)}


def _size(out, *args) -> dict:
    return {"states": len(out.states), "transitions": len(out.transitions)}


def trace_calls(origin: float) -> None:
    """Replace the calls ``check`` is made of with span-timing wrappers.

    The wrappers are bound where the pipeline looks the calls up, so the
    traced check runs the same code as the untraced one.  ``contains`` is one
    span per call: ``check_gtc`` may call it twice, with a second engine.
    """
    def wrap(module, name: str, stage: str, counts=lambda out, *args: {}) -> None:
        call = getattr(module, name)

        def timed(*args, **kwargs):
            _emit({"begin": stage})
            start = time.perf_counter()
            out, counted = None, {}
            try:
                out = call(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                if out is not None:
                    counted = counts(out, *args)
                _emit({"span": stage, "start": start - origin,
                       "end": end - origin, "counts": counted})

        setattr(module, name, timed)

    wrap(proofio, "loads_preproof", "proofio.load",
         lambda pp, text: {"text_chars": len(text), "nodes": len(pp.nodes)})
    wrap(gtc, "validate_preproof", "kernel.validate",
         lambda problems, pp: {"problems": len(problems)})
    wrap(gtc, "build_path_automaton", "gtc.path_automaton", _size)
    wrap(gtc, "build_gtc_automaton", "gtc.trace_automaton", _size)
    wrap(gtc, "trim", "buchi.trim", _size)
    wrap(gtc, "contains", "buchi.contains")
    wrap(gtc, "counterexample_report", "gtc.report",
         lambda report, *args: {"report_chars": len(report)})


def main() -> None:
    traced = sys.argv[1:] == ["--trace", "1"]
    _emit({"ready": True})
    text = sys.stdin.read()
    if traced:
        trace_calls(time.perf_counter())
    result = check(text)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _emit({"result": result})


if __name__ == "__main__":
    main()
