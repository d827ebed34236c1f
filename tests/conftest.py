import pytest

import prunepose.tensor as tensor


@pytest.fixture
def shift_calls(monkeypatch):
    """The row-shift choice of every attention forward run in the test, in
    call order."""
    calls, needs_shift = [], tensor._needs_shift

    def spy(*args):
        calls.append(needs_shift(*args))
        return calls[-1]

    monkeypatch.setattr(tensor, "_needs_shift", spy)
    return calls
