"""One sample of the sweep benchmark, run in a fresh interpreter.

    python3 bench/child.py setup CONFIG
    python3 bench/child.py sweep CONFIG OUT
    python3 bench/child.py trace CONFIG OUT SPANS

Every mode imports ``qksim`` (from ``PYTHONPATH``), validates CONFIG and
prints ``ready``; the parent times the interval from spawn to that line as
set-up.  ``sweep`` then runs the public entry point
``qksim.cli.main(["sweep", ...])`` and prints one JSON line with its exit
code, its wall time and the peak resident set of this process.  ``trace``
does the same with every qksim function wrapped by ``tracer.install`` and
writes the spans to SPANS.  Nothing else goes to standard output.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import pkgutil
import resource
import sys
import time


def validate_config(package, path: str) -> None:
    """Parse CONFIG with the package's ``SweepConfig``, wherever it lives."""
    modules = [importlib.import_module(f"{package.__name__}.cli")] + [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]
    for mod in modules:
        config_cls = getattr(mod, "SweepConfig", None)
        if config_cls is not None:
            config_cls.from_json_file(path)
            return
    raise RuntimeError("qksim defines no SweepConfig")


def main(argv: list[str]) -> int:
    mode, config = argv[0], argv[1]
    import qksim
    import qksim.cli

    validate_config(qksim, config)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    out = argv[2]
    tracer = absent = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        absent = tracing.install(tracer, qksim)
    captured = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        rc = qksim.cli.main(["sweep", "--config", config, "--out", out])
    sweep_s = time.perf_counter() - started
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        with open(argv[3], "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": tracer.spans,
                    "absent": absent,
                    "work_errors": sorted(tracer.work_errors),
                },
                fh,
            )
    report = {
        "rc": rc,
        "sweep_s": sweep_s,
        "peak_rss_mb": peak_rss_mib,
        "package": qksim.__file__,
        "message": captured.getvalue().strip(),
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
