"""The one error type of the library, and the exit status of each code.

Every failure is an ``MfcatError`` with a kebab-case code and a detail;
its text is ``"code: detail"``.  It subclasses ValueError, so callers that
catch ValueError keep working.  A code in ``FAILED_IDENTITY_CODES`` reports
a failed identity, and its detail names the witness (exit 1 on the command
line); every other code reports input the program cannot use (exit 2).
"""

FAILED_IDENTITY_CODES = frozenset({"not-a-factorization", "not-a-morphism", "relation-violated"})


class MfcatError(ValueError):
    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail

    def __reduce__(self):
        return MfcatError, (self.code, self.detail)

    @property
    def exit_status(self) -> int:
        return 1 if self.code in FAILED_IDENTITY_CODES else 2
