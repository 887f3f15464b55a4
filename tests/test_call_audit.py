"""The call audit's ``ast`` mapping names each code object as Python does."""

import ast
import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "call_audit.py"

FIXTURE = textwrap.dedent('''
    import functools

    def top(x):
        def inner(y):
            def innermost():
                return y
            return innermost
        return inner(x)

    class Outer:
        def method(self):
            class Local:
                def deep(self):
                    return 1
            return Local

        @property
        def value(self):
            return 1

        @value.setter
        def value(self, new):
            pass

        @staticmethod
        @functools.lru_cache(maxsize=None)
        def cached(n):
            return n

        class Nested:
            async def run(self):
                return [i for i in range(3)]

    @functools.wraps(top)
    def decorated(*args):
        return top(*args)
''')


def _load_tool():
    spec = importlib.util.spec_from_file_location("call_audit", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _function_codes(code):
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            if not const.co_name.startswith("<") and const.co_flags & 0x2:  # CO_NEWLOCALS
                yield const
            yield from _function_codes(const)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="co_qualname is new in 3.11")
def test_every_code_objects_first_line_maps_to_its_qualname():
    codes = list(_function_codes(compile(FIXTURE, "fixture.py", "exec")))
    mapping = dict(_load_tool().def_lines(ast.parse(FIXTURE)))
    assert len(codes) == len(mapping) == 10
    for code in codes:
        assert mapping[code.co_firstlineno] == code.co_qualname
