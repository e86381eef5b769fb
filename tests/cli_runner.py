"""A test-side runner for sepcat.cli.main.

invoke(main, args) calls main(args) with stdout and stderr captured and
returns the exit code and both texts. Exceptions other than SystemExit
propagate, so a traceback fails the test that caused it.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr


class CliRunner:
    def invoke(self, main, args, **ignored) -> Result:
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(list(args))
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
        return Result(code, out.getvalue(), err.getvalue())
