"""qpskit benchmark: CLI workloads in fresh interpreters, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``. Each
pass of a workload is one fresh interpreter that imports ``qpskit.cli`` and
calls ``qpskit.cli.main(argv)`` for every command of the workload, writing
``--out`` artifacts. ``--trace 0`` runs passes until ``--seconds`` is used
(at least one) and reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs one untraced pass, one traced pass and the
microbenchmarks, and reports the per-layer metrics. Every artifact is
checked against ``known_answers.json`` and for byte-identical repeats. The
last line of standard output is the JSON result; the line before it holds
the samples and provenance. Scratch files go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

from workloads import (GRID3D_STATES, WORKLOADS, CheckTally, check_command,
                       commands, worst_residual)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".perfbench_out")
HASHES = os.path.join(OUT, "artifact_hashes.json")
CHILD = os.path.join(HERE, "child.py")

SETUP_PROBES = 1          # import-only interpreters before the passes...
MAX_SETUPS = 10           # ...and after them while time is left, up to this
CHILD_LIMIT_S = 150.0     # a child running longer is killed and counted failed
LAST_START_S = 110.0      # no new pass starts after this much of a run
THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}
SUITES = ("poincare", "spinless", "bargmann", "lemmas", "casimirs", "pl",
          "boost", "emrelation")
CLI_COMMANDS = ("verify", "numeric", "localize", "causality", "fock")
LAYERS = ("cli", "generators", "expr", "coeffs", "parser", "report", "grid",
          "numcheck", "localization", "fock")


class BenchError(RuntimeError):
    pass


def _env():
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


# -- child processes ----------------------------------------------------------------


def _terminate(*_):
    raise SystemExit(3)     # unwinds through _spawn, which stops the child


def _spawn(plan, workdir, tag):
    """Run one child interpreter to its end; returns its result dict, or None
    when it failed or was killed for running longer than CHILD_LIMIT_S."""
    plan["result"] = os.path.join(workdir, f"{tag}.result.json")
    plan_path = os.path.join(workdir, f"{tag}.plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    with open(os.path.join(workdir, f"{tag}.log"), "wb") as log:
        launch = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, plan_path, repr(launch)],
                                cwd=ROOT, env=_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        timer.start()
        try:
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    if proc.returncode != 0 or not os.path.exists(plan["result"]):
        return None
    with open(plan["result"]) as fh:
        return json.load(fh)


# -- passes and checks --------------------------------------------------------------


def _sha256(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def source_sha256():
    """Hash of ``src/qpskit/*.py``, names and contents."""
    src = os.path.join(ROOT, "src", "qpskit")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


class Run:
    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.source = source_sha256()
        self.cmds = commands(workload, seed)
        self.tally = CheckTally()
        self.setups = []
        self.passes = []          # child results of untraced passes
        self.worst = []
        try:
            with open(HASHES) as fh:
                self.hashes = json.load(fh)
        except (OSError, ValueError):
            self.hashes = {}

    def setup_probe(self):
        result = _spawn({"mode": "setup"}, self.workdir, f"setup{len(self.setups)}")
        if result is None:
            raise BenchError("the program did not import; see "
                             f"{self.workdir}/setup*.log")
        self.setups.append(result["setup_s"])

    def run_pass(self, trace=False):
        tag = f"pass{len(self.passes)}" + ("t" if trace else "")
        outs = [os.path.join(self.workdir, f"{tag}-{i:02d}-{c.key}{c.suffix}")
                for i, c in enumerate(self.cmds)]
        plan = {"mode": "pass", "trace": trace,
                "commands": [c.argv + ["--out", o] for c, o in zip(self.cmds, outs)],
                "spans": os.path.join(self.workdir, f"{tag}.spans.json")}
        result = _spawn(plan, self.workdir, tag)
        rcs = [r["rc"] for r in result["commands"]] if result else \
            ["no result"] * len(self.cmds)
        for i, (cmd, rc, out) in enumerate(zip(self.cmds, rcs, outs)):
            check_command(self.tally, cmd, rc, out)
            self._check_determinism(i, cmd, out)
            w = worst_residual(cmd, out)
            if w is not None:
                self.worst.append(w)
        if result is None:      # every check of the pass has failed above
            print(f"pass {tag} crashed; see {self.workdir}/{tag}.log",
                  file=sys.stderr)
            return None
        self.setups.append(result["setup_s"])
        if not trace:
            self.passes.append(result)
        return result

    def _check_determinism(self, i, cmd, out):
        """Artifacts of one command and seed must repeat byte for byte, across
        the passes of a run and across runs of the same source in this
        checkout. A changed source starts a fresh comparison, so a change that
        keeps every known answer but moves the last digit of a residual is not
        held to the bytes of the code before it."""
        for j, path in enumerate(cmd.artifacts(out)):
            key = "|".join([self.source, self.workload, str(i), str(j), *cmd.argv])
            digest = _sha256(path)
            label = f"{' '.join(cmd.argv)}: artifact {j}"
            if digest is None:
                self.tally.check(f"{label} written", False)
            elif key in self.hashes:
                self.tally.check(f"{label} byte-identical to earlier runs",
                                 digest == self.hashes[key])
            else:
                self.hashes[key] = digest

    def save_hashes(self):
        tmp = HASHES + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.hashes, fh, indent=0, sort_keys=True)
        os.replace(tmp, HASHES)


# -- metrics ------------------------------------------------------------------------


def end_to_end(run):
    verdicts = [p["verdict_s"] for p in run.passes]
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "setup_s": statistics.median(run.setups),
        "verdict_s": statistics.median(verdicts),
        # children run one at a time, so this is the largest pass's peak
        "peak_rss_mb": children.ru_maxrss / 1024.0,
    }


def per_layer(run, plain, traced, micro):
    tr = traced["trace"]
    totals = tr["totals"]

    def calls(name):
        return totals.get(name, [0, 0.0])[0]

    def secs(name):
        return totals.get(name, [0, 0.0])[1]

    def mean_ms(name):
        return secs(name) / calls(name) * 1e3 if calls(name) else 0.0

    m = {
        "coeffs.cancel_calls": calls("coeffs.cancel"),
        "coeffs.cancel_s": secs("coeffs.cancel"),
        "expr.s_mul_cache_entries": tr["s_mul_cache_entries"],
        "generators.build_s": secs("generators.build"),
        "parser.render_ms": tr["render_ms"],
        "parser.render_chars": tr["render_chars"],
        "grid.apply_calls": calls("grid.apply"),
        "grid.apply_s": secs("grid.apply"),
        "grid.fft_calls": calls("grid.fft"),
        "grid.fft_s": secs("grid.fft"),
        "grid.einsum_s": secs("grid.einsum"),
        "grid.transform_s": secs("grid.to_position") + secs("grid.to_momentum"),
        "grid.realize_calls": calls("grid.realize"),
        "grid.realize_s": secs("grid.realize"),
        "numcheck.table_s": secs("numcheck.table"),
        "numcheck.lemma_s": secs("numcheck.lemma"),
        "numcheck.pl_s": secs("numcheck.pl"),
        "numcheck.casimir_s": secs("numcheck.casimir"),
        "numcheck.worst_residual": max(run.worst, default=0.0),
        "localization.nw_evolution_ms": mean_ms("localization.nw_evolution"),
        "localization.microcausality_s": secs("localization.microcausality"),
        "fock.build_ms": mean_ms("fock.build"),
        "fock.field_op_ms": mean_ms("fock.field_op"),
        "report.to_json_ms": mean_ms("report.to_json"),
        "trace.overhead_s": traced["verdict_s"] - plain["verdict_s"],
    }
    for suite in SUITES:
        m[f"generators.suite_s.{suite}"] = secs(f"generators.suite.{suite}")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = secs(f"cli.{cmd}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tr["self_s"].get(layer, 0.0)
    m.update(micro)
    return m


# -- provenance ---------------------------------------------------------------------


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _caches():
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(f"{base}/{index}/level")
        kind = _read(f"{base}/{index}/type")
        size = _read(f"{base}/{index}/size")
        if level and kind and size:
            out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def _size_bytes(text):
    if not text:
        return None
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}
    return int(text[:-1]) * scale[text[-1]] if text[-1] in scale else int(text)


def _batch_bytes(nstates):
    """complex128 states on the 32^3 grid with spin 1/2 and two sectors."""
    return nstates * 32**3 * 2 * 2 * 16


def provenance(run):
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = _caches()
    llc = max((v for v in map(_size_bytes, caches.values()) if v), default=None)
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    batch = _batch_bytes(GRID3D_STATES)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or platform.machine(),
        "caches": caches,
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "sympy": metadata.version("sympy"),
        "commit": commit,
        "source_sha256": run.source,
        "seed": run.seed,
        "inputs": [c.argv for c in run.cmds],
        "threads": THREADS,
        "grid3d_batch_bytes": batch,
        "micro_batch_bytes": _batch_bytes(8),
        "llc_bytes": llc,
        "grid3d_batch_share_of_llc": batch / llc if llc else None,
    }


# -- main ---------------------------------------------------------------------------


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def measure(run, seconds, trace):
    start = time.monotonic()
    if trace:
        plain = run.run_pass()
        traced = run.run_pass(trace=True)
        micro = _spawn({"mode": "micro", "seed": run.seed}, run.workdir, "micro")
        if plain is None or traced is None or micro is None:
            raise BenchError(f"a child crashed; see the logs in {run.workdir}")
        spans = os.path.join(run.workdir, "pass1t.spans.json")
        shutil.copy(spans, os.path.join(OUT, f"spans-{run.workload}-{run.seed}.json"))
        return per_layer(run, plain, traced, micro), "per_layer"
    for _ in range(SETUP_PROBES):
        run.setup_probe()
    while True:
        run.run_pass()
        now = time.monotonic() - start
        if not run.passes:
            raise BenchError(f"the first pass crashed; see the logs in {run.workdir}")
        walls = [p["verdict_s"] + p["setup_s"] for p in run.passes]
        if now + statistics.median(walls) > seconds or now > LAST_START_S:
            break
    while len(run.setups) < MAX_SETUPS and \
            time.monotonic() - start + max(run.setups) < seconds:
        run.setup_probe()
    return end_to_end(run), "end_to_end"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qpskit", "cli.py")):
        print("error: run from a qpskit checkout (src/qpskit/cli.py not found)",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    run = Run(args.workload, args.seed, workdir)
    try:
        values, kind = measure(run, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    run.save_hashes()
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in _declared(kind)}
    detail = {
        "workload": args.workload,
        "passes": len(run.passes),
        "verdict_samples_s": [p["verdict_s"] for p in run.passes],
        "cpu_s": [p["cpu_s"] for p in run.passes],
        "command_s": [[c["seconds"] for c in p["commands"]] for p in run.passes],
        "setup_samples_s": run.setups,
        "failed_share": run.tally.failed / run.tally.attempted,
        "misses": run.tally.misses,
        "worst_residual": max(run.worst, default=None),
        "provenance": provenance(run),
    }
    print(json.dumps(detail))
    shutil.rmtree(workdir)
    print(json.dumps({"correct": run.tally.failed == 0,
                      "attempted": run.tally.attempted,
                      "failed": run.tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
