"""Print a digest of everything fractomo runs on one config leave behind.

Usage::

    python3 tools/artifact_digest.py CONFIG [SUBCOMMAND ...]

runs each subcommand through ``fractomo.cli.main`` with ``--out`` in a
fresh temporary directory and prints, for each run, one line per
artifact: subcommand, exit code, file name and the sha256 of the file;
then the same for its stdout and its stderr, named ``(stdout)`` and
``(stderr)``.  The temporary directory's path is replaced by ``<tmp>`` in
both streams before they are hashed.  The subcommands default to every
one the config's dimension allows.

Two versions of the package are compared by running the script under
each one's source tree and diffing the outputs (one BLAS thread keeps
the numbers reproducible)::

    export OMP_NUM_THREADS=1
    PYTHONPATH=../parent/src python3 tools/artifact_digest.py run.ini > a.txt
    PYTHONPATH=src python3 tools/artifact_digest.py run.ini > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from fractomo.cli import SUBCOMMANDS, SUBCOMMANDS_2D, main as fractomo_main
from fractomo.config import parse_config


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(config, subcommands=None) -> list:
    """The digest lines of the runs of ``subcommands`` on ``config``."""
    if not subcommands:
        subcommands = SUBCOMMANDS if parse_config(config).n == 1 else SUBCOMMANDS_2D
    lines = []
    for subcommand in subcommands:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = fractomo_main([subcommand, "--config", str(config),
                                      "--out", str(out)])
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                lines.append(f"{subcommand} {code} {path.relative_to(out).as_posix()} "
                             f"{_sha256(path.read_bytes())}")
            for name, stream in (("(stdout)", stdout), ("(stderr)", stderr)):
                text = stream.getvalue().replace(tmp, "<tmp>")
                lines.append(f"{subcommand} {code} {name} {_sha256(text.encode())}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: artifact_digest.py CONFIG [SUBCOMMAND ...]", file=sys.stderr)
        return 2
    print("\n".join(digest(argv[0], argv[1:])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
