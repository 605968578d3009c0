"""One fresh interpreter of the benchmark.

    python3 perfbench/child.py PLAN LAUNCH

``LAUNCH`` is ``time.monotonic()`` in the parent just before it started this
process, so set-up time runs from interpreter launch until
``import qpskit.cli`` returns. ``PLAN`` is a JSON file with ``mode``:

* ``setup``: import and exit;
* ``pass``: run the CLI commands in ``commands`` in order through
  ``qpskit.cli.main`` (traced when ``trace`` is true);
* ``micro``: the per-layer microbenchmarks of ``micro.py``.

The result is written as JSON to ``plan["result"]``.
"""

import json
import resource
import sys
import time


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _call(main, argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        import traceback
        traceback.print_exc()
        return "crash"


def _trace_summary(tracer):
    from qpskit.coeffs import AlgebraContext
    contexts = AlgebraContext._instances.values()
    return {
        "totals": tracer.totals(),
        "self_s": tracer.self_times(),
        "render_ms": tracer.render_ms,
        "render_chars": tracer.render_chars,
        "s_mul_cache_entries": sum(len(c.s_mul_cache) for c in contexts),
    }


def run_pass(plan):
    from qpskit.cli import main
    tracer = None
    if plan["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    cpu0, t0 = _cpu(), time.monotonic()
    runs = []
    for argv in plan["commands"]:
        run = main if tracer is None else \
            tracer.span(f"cli.{argv[0]}", "cli", main)
        start = time.monotonic()
        rc = _call(run, argv)
        runs.append({"rc": rc, "seconds": time.monotonic() - start})
        sys.stdout.flush()
    out = {"verdict_s": time.monotonic() - t0, "cpu_s": _cpu() - cpu0,
           "commands": runs}
    if tracer is not None:
        out["trace"] = _trace_summary(tracer)
        tracer.write_spans(plan["spans"])
    return out


def main():
    plan_path, launch = sys.argv[1], float(sys.argv[2])
    import qpskit.cli  # noqa: F401  -- set-up ends when this returns
    setup_s = time.monotonic() - launch
    with open(plan_path) as fh:
        plan = json.load(fh)
    result = {"setup_s": setup_s}
    if plan["mode"] == "pass":
        result.update(run_pass(plan))
    elif plan["mode"] == "micro":
        import micro
        result.update(micro.run(plan["seed"]))
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
