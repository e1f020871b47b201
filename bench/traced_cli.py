"""Run the noisymatch CLI in this process with spans around its module calls.

    python3 bench/traced_cli.py SPANS.json -- --config FILE --threads W --out-dir DIR

The wrappers replace names in the ``noisymatch.cli`` namespace only, so the
program's files are unchanged and pool workers run untraced code.
"""

from __future__ import annotations

import sys
from pathlib import Path

from spans import Tracer

WRAPPED = {
    "load_config_file": "config_io.load_config_file",
    "dict_to_config": "config_io.dict_to_config",
    "config_hash": "config_io.config_hash",
    "run": "cli.run",
    "run_replications": "estimation.run_replications",
    "estimate_match_curve": "estimation.estimate_match_curve",
    "estimate_afford_curve": "estimation.estimate_afford_curve",
    "attenuation_metrics": "estimation.attenuation_metrics",
    "amplification_metrics": "estimation.amplification_metrics",
}


def main() -> int:
    spans_path = Path(sys.argv[1])
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    tracer = Tracer()
    tracer.trace_id = "cli"
    with tracer.span("cli.import"):
        import noisymatch.cli as cli
    for attr, name in WRAPPED.items():
        tracer.wrap(cli, attr, name)
    with tracer.span("cli.main"):
        code = cli.main(cli_args)
    tracer.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
