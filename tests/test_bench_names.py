"""Every function the benchmark tracer wraps must exist in losscost.

``bench/spans.py`` names the traced functions as (module, attribute) pairs
and patches them at run time; a deleted or renamed function breaks every
traced run.  The spans file is only read here, no tracer is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("span,targets", sorted(_spans().items()))
def test_traced_names_exist(span, targets):
    for modname, attr in targets:
        assert callable(getattr(importlib.import_module(modname), attr, None)), \
            f"span {span}: {modname}.{attr} is missing"
