"""Runs the ``strutforge`` CLI in-process for tests.

``invoke(args)`` calls ``cli.main`` with stdout and stderr redirected
into one buffer, in the order written, and returns the exit code, that
output and the exception that ended the run: a ``SystemExit`` with a
nonzero code, or any other exception, which then counts as exit code 1.
"""

import contextlib
import io
from dataclasses import dataclass
from typing import Optional

from strutforge.cli import cli


@dataclass
class Result:
    exit_code: int
    output: str
    exception: Optional[BaseException]


def invoke(args) -> Result:
    buffer = io.StringIO()
    exit_code, exception = 0, None
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        try:
            cli.main(args=list(args))
        except SystemExit as exc:
            exit_code = exc.code or 0
            exception = exc if exit_code else None
        except Exception as exc:
            exit_code, exception = 1, exc
    return Result(exit_code, buffer.getvalue(), exception)
