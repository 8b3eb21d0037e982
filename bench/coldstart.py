"""One cold start: import ``casepipe.cli`` and run it over an empty directory.

Usage: python3 coldstart.py SPEC_JSON

Prints the seconds spent in the import and the empty run, timed inside this
fresh interpreter so that process spawn and interpreter start-up, which are
not the program's own, stay out of the figure.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
sys.path.insert(0, spec["src"])

started = perf_counter()
from casepipe import cli  # noqa: E402

cli.run(
    cli.RunConfig(
        input_dir=Path(spec["empty_docs"]),
        output_dir=Path(spec["setup_out"]),
        **spec["config"],
    )
)
print(perf_counter() - started)
