import pathlib
import warnings

import pytest

import superhopf

SOURCES = sorted(pathlib.Path(superhopf.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sources_compile_without_warnings(path):
    """Invalid escape sequences warn on import and fail under `python -W error`."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")
