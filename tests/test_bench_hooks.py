"""The names the benchmark's tracer rebinds in concc.

``perfbench/spans.py`` wraps concc functions and methods by name, so a
rename or a removal here breaks the benchmark, not the program.  The module
is loaded by its file path, which leaves ``sys.path`` as it is.
"""

import importlib.util
import pathlib

from concc import smallcanc, substrings

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_tracer_rebinds_existing_names_and_restores_them():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = substrings.suffix_array
    tracer = spans.Tracer()
    try:
        # install looks each name up in its owner and raises where one is gone
        tracer.install()
        rebound = list(tracer._undo)
        assert rebound
        assert all(getattr(holder, attr) is not fn for holder, attr, fn in rebound)
        assert smallcanc.suffix_array is substrings.suffix_array is not original
    finally:
        tracer.uninstall()
    assert all(getattr(holder, attr) is fn for holder, attr, fn in rebound)
    assert smallcanc.suffix_array is substrings.suffix_array is original
