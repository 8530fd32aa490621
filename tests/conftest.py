import pytest

# When a Hypothesis property fails, Hypothesis's pytest plugin imports libcst
# to propose an @example patch, and importing libcst warns that
# mypy_extensions.TypedDict is deprecated.  Under -W error that one warning
# turned the falsifying example into a pytest INTERNALERROR.
_LIBCST_IMPORT = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning:libcst"


def pytest_collection_modifyitems(items):
    for item in items:
        if getattr(getattr(item, "obj", None), "is_hypothesis_test", False):
            item.add_marker(pytest.mark.filterwarnings(_LIBCST_IMPORT))
