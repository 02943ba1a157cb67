"""Tests for loop-nest inference and symbolic trip counts."""

import ast
import textwrap

from repro.lint.dataflow import Sym, iter_loops, loop_nests


def func_of(body: str) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(body))
    func = tree.body[0]
    assert isinstance(func, ast.FunctionDef)
    return func


class TestLoopNests:
    def test_range_trip_counts_resolve(self):
        func = func_of("""
            def f():
                for i in range(8):
                    for j in range(2, 6):
                        pass
        """)
        nests = loop_nests(func)
        flat = list(iter_loops(nests))
        assert [loop.trip.value for loop in flat] == [8.0, 4.0]
        assert [loop.depth for loop in flat] == [0, 1]

    def test_while_is_unbounded(self):
        func = func_of("""
            def f(n):
                while n:
                    n -= 1
        """)
        (loop,) = loop_nests(func)
        assert loop.kind == "while"
        assert not loop.bounded
        assert loop.trip is None

    def test_for_over_iterable_is_bounded_unknown(self):
        func = func_of("""
            def f(xs):
                for x in xs:
                    pass
        """)
        (loop,) = loop_nests(func)
        assert loop.bounded
        assert loop.trip is None

    def test_custom_evaluator_resolves_names(self):
        func = func_of("""
            def f():
                for i in range(n_iters):
                    pass
        """)
        env = {"n_iters": Sym("n_iters", 12.0)}

        def evaluate(expr):
            if isinstance(expr, ast.Name):
                return env.get(expr.id)
            if isinstance(expr, ast.Constant):
                return Sym(repr(expr.value), float(expr.value))
            return None

        (loop,) = loop_nests(func, evaluate)
        assert loop.trip == Sym("n_iters", 12.0)

    def test_loops_inside_if_try_with_are_found(self):
        func = func_of("""
            def f(c, xs):
                if c:
                    for x in xs:
                        pass
                try:
                    while c:
                        break
                except ValueError:
                    for y in xs:
                        pass
                with open("f"):
                    for z in range(3):
                        pass
        """)
        kinds = [loop.kind for loop in iter_loops(loop_nests(func))]
        assert kinds == ["for", "while", "for", "for"]

    def test_loop_nests_descends_into_match_cases(self):
        func = func_of("""
            def f(cmd):
                match cmd:
                    case "sweep":
                        for i in range(8):
                            pass
        """)
        loops = loop_nests(func)
        assert len(loops) == 1
        assert loops[0].trip is not None and loops[0].trip.value == 8.0
