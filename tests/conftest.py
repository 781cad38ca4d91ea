import pytest

from octasphere import operators


@pytest.fixture
def fresh_memos():
    """Every memo emptied before and after (`operators.reset`): a mutant of
    code, not of a table row, is no new key, so a warm memo would serve the
    sound verdict and a cold one would keep the mutant's."""
    operators.reset()
    yield
    operators.reset()
