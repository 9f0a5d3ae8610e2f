"""Rewrite tests/golden/figs_repro.sha256 from a fresh ``figs-repro --dt 0.01`` run.

    PYTHONPATH=src python tests/golden/regenerate.py

Run it from a source checkout when a change moves an artifact's bytes on
purpose, and say in CHANGES.md which files moved and why; the diff of the
digest file shows them. The run and the digests are the ones the golden test
in tests/test_cli.py compares against the file.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from conftest import FIGS_REPRO_GOLDEN, FIGS_REPRO_GOLDEN_ARGS, figs_repro_digests  # noqa: E402
from offsetsteer.cli import EXIT_OK, main  # noqa: E402

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "figs"
    if main([*FIGS_REPRO_GOLDEN_ARGS, "--out", str(out)]) != EXIT_OK:
        sys.exit("figs-repro failed; the golden file is unchanged")
    digests = figs_repro_digests(out)
FIGS_REPRO_GOLDEN.write_text("".join(f"{digest}  {name}\n"
                                     for name, digest in sorted(digests.items())))
print(f"{len(digests)} digests written to {FIGS_REPRO_GOLDEN}")
