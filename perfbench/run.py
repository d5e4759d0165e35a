"""Host-time benchmark of infersub on seeded synthetic star workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload star-steady --seed 1 --seconds 20 --trace 0

The workload's scenario is generated from the seed and written under
``.perfbench/``; the program only ever sees that file. The run drives the
public entry point ``infersub.cli.main`` in this process and times it from
outside:

* ``--trace 0`` alternates the workload's command (``run_s``) with
  ``infersub place`` (``setup_s``) until ``--seconds`` are spent, reports
  medians at reference speed (see ``SpeedProbe``), and measures
  ``peak_rss_mb`` once in a fresh process.
* ``--trace 1`` alternates an untraced and a traced run of the command and
  reports per-layer numbers from the spans (see ``spans.py``).

Every output is checked (see ``check_*``). The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` count command
executions, ``metrics`` maps each metric to its value and unit. A failed check
prints the reason on standard error, sets ``correct`` to false and makes the
exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2
# A set-up much shorter than the command repeats until it has taken this share
# of the command's time, so its median rests on as many samples.
SETUP_SHARE = 0.25

# Other tenants of the host slow this CPU by up to 1.8x, in spells that last
# from under a second to minutes, so raw host seconds of identical work spread
# by a third between runs. A probe thread on the same CPU times a fixed piece
# of Python work every PROBE_PERIOD_S while the command runs, and each time
# is scaled by REFERENCE_S over the probe's mean: the seconds the command
# would have taken at the CPU's uncontended speed. REFERENCE_S is the piece's
# time on an uncontended core of the 2-vCPU Xeon VM this was tuned on.
PROBE_PERIOD_S = 0.01
REFERENCE_S = 1.1e-4

# A fresh interpreter runs the command once and prints its own peak RSS in
# KiB. VmHWM starts afresh at exec; ru_maxrss would carry over the RSS of
# this process, which the child was forked from.
_RSS_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from infersub.cli import main
code = main(sys.argv[2:])
with open("/proc/self/status", encoding="ascii") as fh:
    hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(code, hwm)
"""

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accounted_share": "share",
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


class SpeedProbe:
    """Samples the speed of the CPU this process is pinned to."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (end, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    @staticmethod
    def time_reference() -> float:
        """Seconds of a fixed piece of Python work, about 0.1 ms uncontended."""
        t0 = perf_counter()
        d: dict[int, int] = {}
        for i in range(1000):
            d[i & 255] = d.get(i & 255, 0) + i
        return perf_counter() - t0

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            seconds = self.time_reference()
            self.samples.append((perf_counter(), seconds))

    def __enter__(self) -> "SpeedProbe":
        # pin first: the probe thread inherits the mask and shares the CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean probe time within [start, end]."""
        inside = [dt for t, dt in self.samples if start <= t <= end]
        if not inside:  # a call shorter than one period: time the work now
            inside = [self.time_reference()]
        return REFERENCE_S / statistics.fmean(inside)


def _require_source() -> None:
    if not (SRC / "infersub" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no infersub sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def _invoke(main, argv: list[str]) -> tuple[float, float, str]:
    """Run the cli in this process; (start, host seconds, emitted text)."""
    gc.collect()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # the cli exits this way on a bad scenario
            code = exc.code
        elapsed = perf_counter() - t0
    if code != 0:
        raise CheckFailed(f"infersub {' '.join(argv)} exited with {code}")
    return t0, elapsed, buf.getvalue()


def _peak_rss(argv: list[str], out: Path) -> tuple[float, str]:
    """Peak resident MB of a fresh process running argv, and its output."""
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, str(SRC), *argv, "--out", str(out)],
        capture_output=True, text=True, timeout=170, check=False,
    )
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2 or fields[0] != "0":
        raise CheckFailed(f"fresh process failed: {proc.stderr.strip()[-500:]}")
    return int(fields[1]) / 1024, out.read_text(encoding="utf-8")


# -- correctness ---------------------------------------------------------------


def check_same(texts: list[str], what: str) -> None:
    if any(t != texts[0] for t in texts):
        raise CheckFailed(f"{what}: output bytes differ between repetitions")


def check_round_trip(text: str) -> None:
    from infersub.metrics import emit, report_from_json

    if emit(report_from_json(text), "json") != text:
        raise CheckFailed("report does not round-trip through report_from_json")


def lost_deliveries(gen, report: dict) -> int:
    """Owed deliveries neither delivered nor reported.

    A delivery counts as reported when the report shows it dropped, filtered,
    still buffered at the end, or owed to a subscription whose instance is
    suspended.
    """
    suspended = {i["sub_id"] for i in report["instances"] if i["suspended"]}
    lost = 0
    for s in report["subscriptions"]:
        if s["sub_id"] in suspended:
            continue
        shown = s["delivered"] + s["dropped"] + s["filtered"] + s["end_buffered"]
        lost += max(0, gen.owed[s["sub_id"]] - shown)
    return lost


def check_run_report(gen, text: str) -> int:
    """Check one ``infersub run`` report; returns its lost deliveries."""
    check_round_trip(text)
    report = json.loads(text)
    subs = {s["sub_id"]: s for s in report["subscriptions"]}
    if set(subs) != set(gen.owed):
        raise CheckFailed("report subscriptions differ from the generated ones")
    if report["totals"]["published"] != gen.published:
        raise CheckFailed(
            f"published {report['totals']['published']}, expected {gen.published}"
        )
    if gen.strict:
        for sub_id, owed in sorted(gen.owed.items()):
            s = subs[sub_id]
            if (s["delivered"], s["dup_suppressed"], s["dropped"]) != (owed, 0, 0):
                raise CheckFailed(
                    f"{sub_id}: delivered {s['delivered']} of {owed}, "
                    f"dup_suppressed {s['dup_suppressed']}, dropped {s['dropped']}"
                )
    return lost_deliveries(gen, report)


def check_placements(upstream_text: str, oracle_text: str | None) -> None:
    """Upstream rows are feasible; each oracle row is feasible and no worse."""
    upstream = json.loads(upstream_text)
    if not upstream or not all(r["feasible"] for r in upstream):
        raise CheckFailed("an upstream placement is infeasible")
    if oracle_text is None:
        return
    oracle = json.loads(oracle_text)
    by_instance = {r["instance_id"]: r for r in upstream}
    if sorted(by_instance) != sorted(r["instance_id"] for r in oracle):
        raise CheckFailed("oracle rows do not match the upstream instances")
    for row in oracle:
        if not row["feasible"] or row["algorithm"] != "oracle":
            raise CheckFailed(f"{row['instance_id']}: oracle placement infeasible")
        if row["objective"] > by_instance[row["instance_id"]]["objective"]:
            raise CheckFailed(
                f"{row['instance_id']}: oracle objective {row['objective']} "
                f"above upstream {by_instance[row['instance_id']]['objective']}"
            )


# -- measurement ---------------------------------------------------------------


class Run:
    """State of one benchmark run: the inputs, the outputs and the counts."""

    def __init__(self, gen, scenario: Path, probe: SpeedProbe) -> None:
        import infersub.cli as cli

        self.gen = gen
        self.cli = cli
        self.probe = probe
        self.command = [gen.command[0], "--scenario", str(scenario), *gen.command[1:]]
        self.setup = ["place", "--scenario", str(scenario)]
        self.attempted = 0
        self.outputs: list[str] = []
        self.setup_outputs: list[str] = []

    def invoke(self, argv: list[str], main=None) -> tuple[float, float, str]:
        """(host seconds, seconds at reference speed, emitted text)."""
        self.attempted += 1
        start, elapsed, text = _invoke(main or self.cli.main, argv)
        return elapsed, elapsed * self.probe.scale(start, start + elapsed), text

    def warm_up(self) -> None:
        """One untimed run of a bundled scenario loads every lazy module."""
        bundled = SRC / "infersub" / "scenarios" / "nwdaf.json"
        self.invoke(["run", "--scenario", str(bundled)])

    def check(self) -> int:
        """Check every output; the lost deliveries of ``infersub run``."""
        check_same(self.outputs, " ".join(self.gen.command))
        check_same(self.setup_outputs, "place")
        if self.gen.command[0] == "run":
            check_placements(self.setup_outputs[0], None)
            return check_run_report(self.gen, self.outputs[0])
        check_placements(self.setup_outputs[0], self.outputs[0])
        return 0


def _loop(seconds: float, minimum: int, step) -> None:
    """Call step() until seconds are spent, at least minimum times.

    A further step starts only when the mean step so far still fits.
    """
    start = perf_counter()
    done = 0
    while True:
        step()
        done += 1
        spent = perf_counter() - start
        if done >= minimum and spent + spent / done > seconds:
            return


def _show(name: str, samples: list[tuple[float, float]]) -> None:
    print(f"{name}: {len(samples)} calls; host s "
          + " ".join(f"{raw:.4f}" for raw, _ in samples)
          + "; at reference speed "
          + " ".join(f"{scaled:.4f}" for _, scaled in samples))


def measure(run: Run, seconds: float) -> dict[str, float]:
    runs: list[tuple[float, float]] = []
    setups: list[tuple[float, float]] = []

    def step() -> None:
        command_s, scaled, text = run.invoke(run.command)
        runs.append((command_s, scaled))
        run.outputs.append(text)
        spent = 0.0
        while spent == 0.0 or spent < SETUP_SHARE * command_s:
            raw, scaled, text = run.invoke(run.setup)
            setups.append((raw, scaled))
            run.setup_outputs.append(text)
            spent += raw

    # the fresh process runs the command once more, inside the time budget
    start = perf_counter()
    run.attempted += 1
    rss, text = _peak_rss(run.command, WORK / f"{run.gen.workload}-rss.out")
    run.outputs.append(text)
    _loop(seconds - (perf_counter() - start), MIN_ITERATIONS, step)
    lost = run.check()
    owed = sum(run.gen.owed.values())
    lost_share = lost / owed if owed else 0.0
    _show("run_s", runs)
    _show("setup_s", setups)
    print(f"lost_share: {lost_share:.6f} ({lost} of {owed} owed deliveries "
          f"neither delivered nor reported)")
    return {
        "run_s": statistics.median(scaled for _, scaled in runs),
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "peak_rss_mb": rss,
        "accounted_share": 1.0 - lost_share,
    }


def measure_traced(run: Run, seconds: float) -> dict[str, float]:
    from spans import Tracer

    tracer = Tracer()
    plain: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    layers: list[dict[str, float]] = []
    traced_outputs: list[str] = []

    def step() -> None:
        raw, scaled, text = run.invoke(run.command)
        plain.append((raw, scaled))
        run.outputs.append(text)
        tracer.reset()
        tracer.install()
        try:
            raw, scaled, text = run.invoke(
                run.command, main=lambda argv: tracer.call(run.cli.main, argv)
            )
        finally:
            tracer.uninstall()
        traced.append((raw, scaled))
        traced_outputs.append(text)
        delivered = (
            json.loads(text)["totals"]["delivered"] if run.gen.command[0] == "run"
            else 0
        )
        layers.append(tracer.per_layer(delivered, raw))

    _loop(seconds, MIN_TRACED_ITERATIONS, step)
    run.setup_outputs.append(run.invoke(run.setup)[2])
    tracer.dump(WORK / f"{run.gen.workload}-{run.gen.seed}.spans.jsonl")
    check_same(run.outputs + traced_outputs, "traced and untraced runs")
    run.check()
    _show("untraced run_s", plain)
    _show("traced run_s", traced)
    out = {
        name: statistics.median(layer[name] for layer in layers)
        for name in layers[0]
    }
    untraced = statistics.median(scaled for _, scaled in plain)
    out["tracing.overhead_share"] = (
        statistics.median(scaled for _, scaled in traced) - untraced
    ) / untraced
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _require_source()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import generate
    from spans import metric_units

    if args.workload not in generate.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(generate.WORKLOADS)}")
    gen = generate.generate(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    scenario = WORK / f"{args.workload}-{args.seed}.json"
    scenario.write_text(gen.text(), encoding="utf-8")
    print(f"workload {gen.workload} seed {gen.seed}: "
          + ", ".join(f"{k} {v}" for k, v in gen.scale.items()))

    correct = True
    failed = 0
    values: dict[str, float] = {}
    with SpeedProbe() as probe:
        run = Run(gen, scenario, probe)
        try:
            run.warm_up()
            if args.trace:
                values = measure_traced(run, args.seconds)
            else:
                values = measure(run, args.seconds)
        except CheckFailed as exc:
            sys.stderr.write(f"perfbench: CHECK FAILED: {exc}\n")
            correct = False
            failed = 1
        except Exception:  # any crash of the program under test is a failure
            sys.stderr.write(f"perfbench: {args.workload} raised\n")
            traceback.print_exc()
            correct = False
            failed = 1

    units = metric_units() if args.trace else END_TO_END_UNITS
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items() if name in values
    }
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
