"""Checker benchmark: generated proofs, each checked in a fresh process.

Run from the repository root:

    python3 bench/run.py --workload threads --seed 1 --seconds 15 --trace 0

Load model: a closed loop with one client.  ``run.py`` checks one proof at a
time, each in a fresh worker process (``worker.py``), so at most two
processes run.  A worker that has no verdict at ``DEADLINE_S`` is killed and
its check is recorded as undecided; the library has no deadline of its own.

A run makes passes over the workload's proofs.  The first pass checks every
proof.  A proof whose check hits the deadline is checked only then.  Every
other proof gets an equal share of ``--seconds``: later passes check it
again until its checks have taken its share and there are at least
``MIN_SAMPLES`` of them.  So a run takes about ``--seconds``, plus
``DEADLINE_S`` for each proof past the deadline, plus the excess of the
proofs whose ``MIN_SAMPLES`` checks take more than their share.  Every
verdict goes through the gate in ``Gate``; the last line of stdout is the
JSON result.  Per-check records, with ``--trace 1`` also their spans,
are written to ``bench/out/`` after the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "hflcyc").is_dir():
    sys.exit(f"no hflcyc source tree under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

from hflcyc.kernel import successors  # noqa: E402
from hflcyc.trace import Lasso, gtc_bruteforce, lasso_good  # noqa: E402

from families import FAMILIES, Case  # noqa: E402

DEADLINE_S = 12.0
"""Per-check deadline.  The slowest decided check, ``rotation(3)``, takes
5-8.5 s; ``rotation(4)`` and ``branching(3)`` have no verdict after 25 s."""

MIN_SAMPLES = 3
"""The fewest checks of a decided proof in a run; its time is their median."""

READY_TIMEOUT_S = 60.0
"""How long a worker may take to start and import ``hflcyc``."""

WORKLOADS: dict[str, list[tuple[str, int]]] = {
    # many occurrences a trace may follow: containment is the whole cost,
    # and the last size of each family is past the engine's reach
    "threads": [("rotation", k) for k in (1, 2, 3, 4)]
               + [("branching", k) for k in (1, 2, 3)],
    # one thread around one long higher-order cycle: front-end layers weigh more
    "long_cycle": [("long_cycle", m) for m in (1, 2, 4, 8, 16, 32, 64)],
    # rejected proofs: witness extraction and the counterexample report
    "counterexamples": [("long_cycle_mu", m) for m in (1, 4, 16, 64)]
                       + [("figure_eight", 2), ("mu_loop", 1), ("sigma_free", 1)],
}


def make_cases(workload: str, seed: int, rep: int = 0) -> list[Case]:
    """The workload's proofs for pass ``rep`` of a run.

    ``seed`` and ``rep`` pick the names of bound variables only: every pass
    checks fresh alpha-variants of the same proofs, so a proof's median is
    taken over several namings, which change how much work the checker does.
    """
    return [_case(seed, rep, family, size) for family, size in WORKLOADS[workload]]


def _case(seed: int, rep: int, family: str, size: int) -> Case:
    return FAMILIES[family](size, random.Random(f"{seed}:{rep}:{family}:{size}"))


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------


@dataclass
class Check:
    """One check of one proof by one worker."""

    case: str
    traced: bool
    setup_s: float
    check_s: float
    verdict: str  # accepted, rejected, unknown (GtcUnknown), timeout, crashed
    peak_rss_mb: float | None  # None when the worker printed no result
    lasso: list | None = None
    spans: list[dict] = field(default_factory=list)

    @property
    def decided(self) -> bool:
        return self.verdict in ("accepted", "rejected")


class _Lines:
    """JSON lines from a worker's stdout, each read against a deadline."""

    def __init__(self, proc: subprocess.Popen):
        self._fd = proc.stdout.fileno()
        self._buf = b""
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._fd, selectors.EVENT_READ)

    def next(self, deadline: float) -> dict | None:
        """The next line, or None at end of output or at the deadline."""
        while b"\n" not in self._buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not self._sel.select(left):
                return None
            chunk = os.read(self._fd, 1 << 16)
            if not chunk:
                return None
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def close(self) -> None:
        self._sel.close()


def run_worker(case: Case, traced: bool, hash_seed: int) -> Check:
    """Check ``case.text`` in a fresh process, killed at ``DEADLINE_S``.

    ``hash_seed`` fixes the worker's string hashing, which changes how much
    work the checker does; the n-th check of every proof in every run uses
    the same one, so runs differ less than with random hashing.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), "--trace", "1" if traced else "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    lines = _Lines(proc)
    try:
        if lines.next(spawned + READY_TIMEOUT_S) != {"ready": True}:
            raise RuntimeError(f"{case.name}: worker did not start")
        setup_s = time.perf_counter() - spawned
        proc.stdin.write(case.text.encode())
        proc.stdin.close()
        sent = time.perf_counter()
        spans: list[dict] = []
        open_stage = None
        while (msg := lines.next(sent + DEADLINE_S)) is not None:
            if "begin" in msg:
                open_stage = msg["begin"]
            elif "span" in msg:
                spans.append(msg)
                open_stage = None
            elif "result" in msg:
                break
        timed_out = msg is None and time.perf_counter() >= sent + DEADLINE_S
    finally:
        lines.close()
        proc.stdout.close()
        proc.kill()
        proc.wait()
    if timed_out:
        if open_stage is not None:
            # the stage the worker was killed in runs to the deadline
            start = spans[-1]["end"] if spans else 0.0
            spans.append({"span": open_stage, "start": start, "end": DEADLINE_S,
                          "counts": {}, "killed": True})
        return Check(case.name, traced, setup_s, DEADLINE_S, "timeout", None,
                     spans=spans)
    if msg is None:
        print(f"{case.name}: worker exited with {proc.returncode} and no verdict",
              file=sys.stderr)
        return Check(case.name, traced, setup_s, DEADLINE_S, "crashed", None)
    result = msg["result"]
    return Check(case.name, traced, setup_s, result["check_s"], result["verdict"],
                 result["peak_rss_mb"], result.get("lasso"), spans)


# ---------------------------------------------------------------------------
# the verdict gate
# ---------------------------------------------------------------------------


class Gate:
    """Checks every verdict against the answer known by construction.

    - a decided verdict must be the expected one;
    - a rejection's witness must be a path of the proof from its root, and
      no tail of it may carry a good trace (``lasso_good`` is false);
    - at the smallest size of each family, ``gtc_bruteforce`` must agree
      with the expected verdict, and so with every decided check.

    Undecided checks (timeout or ``GtcUnknown``) are not wrong; they count
    against ``decided_frac`` instead.
    """

    def __init__(self, cases: list[Case]):
        self.errors: list[str] = []
        smallest: dict[str, Case] = {}
        for c in cases:
            if c.family not in smallest or c.size < smallest[c.family].size:
                smallest[c.family] = c
        for c in smallest.values():
            if gtc_bruteforce(c.pp) != c.valid:
                self.errors.append(f"{c.name}: gtc_bruteforce disagrees with "
                                   f"the expected verdict {c.valid}")

    def admit(self, check: Check, case: Case) -> bool:
        """Record and return whether ``check`` of ``case`` passes the gate."""
        if check.verdict == "crashed":
            self.errors.append(f"{case.name}: worker crashed")
            return False
        if not check.decided:
            return True
        if (check.verdict == "accepted") != case.valid:
            self.errors.append(f"{case.name}: verdict {check.verdict}, "
                               f"expected {'accepted' if case.valid else 'rejected'}")
            return False
        if check.verdict == "rejected" and not _is_bad_path(case, check.lasso):
            self.errors.append(f"{case.name}: bad witness {check.lasso}")
            return False
        return True


def _is_bad_path(case: Case, witness: list | None) -> bool:
    if witness is None:
        return False
    pp = case.pp
    lasso = Lasso(tuple(witness[0]), tuple(witness[1]))
    spine = lasso.spine
    if spine[0] != pp.tree.id or any(n not in pp.nodes for n in spine):
        return False
    steps_ok = all(spine[lasso.successor_index(i)] in successors(pp, spine[i])
                   for i in range(len(spine)))
    return steps_ok and not lasso_good(pp, lasso)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _per_case(checks: list[Check], key, summary=statistics.median) -> dict[str, float]:
    """``summary`` of ``key`` over each proof's checks, by proof."""
    by_case: dict[str, list[float]] = {}
    for c in checks:
        by_case.setdefault(c.case, []).append(key(c))
    return {name: summary(v) for name, v in by_case.items()}


def _stage_s(check: Check, stage: str) -> float:
    return sum(s["end"] - s["start"] for s in check.spans if s["span"] == stage)


def _stage_count(check: Check, stage: str, count: str) -> int:
    return sum(s["counts"].get(count, 0) for s in check.spans if s["span"] == stage)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(checks: list[Check]) -> dict:
    medians = _per_case(checks, lambda c: c.check_s)
    return {
        "check_s.geomean": _metric(
            math.exp(statistics.fmean(math.log(t) for t in medians.values())), "s"),
        "suite_s": _metric(sum(medians.values()), "s"),
        # each proof weighs the same, however often it was checked
        "decided_frac": _metric(statistics.fmean(
            _per_case(checks, lambda c: c.decided, statistics.fmean).values()), "frac"),
        # a killed worker reports none: its memory says only how long it ran
        "peak_rss_mb": _metric(
            max(c.peak_rss_mb for c in checks if c.peak_rss_mb is not None), "MB"),
        "setup_s": _metric(statistics.median(c.setup_s for c in checks), "s"),
    }


def per_layer(plain: list[Check], traced: list[Check]) -> dict:
    """Sums over the workload's proofs of each proof's median."""
    def stage_sum(stage: str) -> float:
        return sum(_per_case(traced, lambda c: _stage_s(c, stage)).values())

    def count_sum(stage: str, count: str) -> float:
        return sum(_per_case(
            traced, lambda c: _stage_count(c, stage, count)).values())

    traced_total = sum(_per_case(traced, lambda c: c.check_s).values())
    plain_total = sum(_per_case(plain, lambda c: c.check_s).values())
    built = count_sum("gtc.trace_automaton", "states")
    useful = count_sum("buchi.trim", "states")
    witness = _per_case(
        plain, lambda c: len(c.lasso[0]) + len(c.lasso[1]) if c.lasso else 0)
    return {
        "proofio.load_s": _metric(stage_sum("proofio.load"), "s"),
        "proofio.text_kb": _metric(count_sum("proofio.load", "text_chars") / 1000, "kB"),
        "kernel.validate_s": _metric(stage_sum("kernel.validate"), "s"),
        "kernel.nodes": _metric(count_sum("proofio.load", "nodes"), "count"),
        "gtc.path_automaton_s": _metric(stage_sum("gtc.path_automaton"), "s"),
        "gtc.trace_automaton_s": _metric(stage_sum("gtc.trace_automaton"), "s"),
        "gtc.trace_states": _metric(built, "count"),
        "gtc.trace_transitions": _metric(
            count_sum("gtc.trace_automaton", "transitions"), "count"),
        "buchi.trim_s": _metric(stage_sum("buchi.trim"), "s"),
        "buchi.trim_states": _metric(useful, "count"),
        "buchi.trim_transitions": _metric(count_sum("buchi.trim", "transitions"), "count"),
        "buchi.useful_frac": _metric(useful / built, "frac"),
        "buchi.contains_s": _metric(stage_sum("buchi.contains"), "s"),
        "buchi.contains_share": _metric(stage_sum("buchi.contains") / traced_total, "frac"),
        "gtc.report_s": _metric(stage_sum("gtc.report"), "s"),
        "gtc.report_kb": _metric(count_sum("gtc.report", "report_chars") / 1000, "kB"),
        "gtc.witness_nodes": _metric(sum(witness.values()), "count"),
        "tracing.overhead_frac": _metric(traced_total / plain_total - 1, "frac"),
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """The JSON result of one run, and the gate's errors."""
    first = make_cases(workload, seed)
    gate = Gate(first)
    shapes = {c.name: (c.family, c.size) for c in first}
    checks: list[Check] = []
    failed = 0
    used = dict.fromkeys(shapes, 0.0)
    count = dict.fromkeys(shapes, 0)
    todo = list(shapes)
    reps = 0
    while todo:
        for name in todo:
            case = _case(seed, reps, *shapes[name])
            start = time.perf_counter()
            # in a traced run each check has a traced twin right next to it,
            # so drift in machine speed affects both alike; which goes first
            # alternates between passes
            order = (False, True) if reps % 2 == 0 else (True, False)
            timed_out = False
            for traced in (order if trace else (False,)):
                check = run_worker(case, traced, hash_seed=reps)
                failed += not gate.admit(check, case)
                checks.append(check)
                timed_out |= check.verdict == "timeout"
            if not reps and timed_out:
                # it takes the whole deadline every time, and repeating it
                # would crowd out every other proof's samples
                del used[name]
            else:
                used[name] += time.perf_counter() - start
                count[name] += 1
        share = seconds / max(len(used), 1)
        todo = [n for n in used if count[n] < MIN_SAMPLES or used[n] < share]
        reps += 1

    plain = [c for c in checks if not c.traced]
    traced = [c for c in checks if c.traced]
    for a, b in zip(plain, traced):
        if a.decided and b.decided and (a.verdict, a.lasso) != (b.verdict, b.lasso):
            gate.errors.append(f"{a.case}: traced check gave {b.verdict} {b.lasso}, "
                               f"untraced {a.verdict} {a.lasso}")
    _write_records(workload, seed, trace, checks)
    return {
        "correct": not gate.errors,
        "attempted": len(checks),
        "failed": failed,
        "metrics": per_layer(plain, traced) if trace else end_to_end(plain),
    }, gate.errors


def _write_records(workload: str, seed: int, trace: bool, checks: list[Check]) -> None:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps([vars(c) for c in checks], indent=1) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    result, errors = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for e in errors:
        print(f"gate: {e}", file=sys.stderr)
    print(f"wrong_verdicts: {len(errors)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
