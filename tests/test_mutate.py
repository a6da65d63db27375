import ast
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "mutate", Path(__file__).resolve().parents[1] / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

TOY = '''from __future__ import annotations

def f(a: int, b: int = 3) -> 4 + 4:
    return a < b and not a

y: 7 = 0
X = 2 + 1
flag = True
'''


def _toy(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    return path


def test_sites_lists_each_change_by_line_outside_annotations(tmp_path):
    found = [(line, what) for _, _, _, line, what in mutate.sites(_toy(tmp_path))]
    assert found == [
        (3, "3 -> 4"), (3, "3 -> 2"),
        (4, "And -> Or"), (4, "Lt -> LtE"), (4, "drop Not"),
        (6, "0 -> 1"), (6, "0 -> -1"),
        (7, "Add -> Sub"), (7, "2 -> 3"), (7, "2 -> 1"), (7, "1 -> 2"), (7, "1 -> 0"),
        (8, "True -> False"),
    ]
    assert [s[3] for s in mutate.sites(_toy(tmp_path), (4, 6))] == [4, 4, 4, 6, 6]


def test_mutant_source_changes_exactly_one_site(tmp_path):
    path = _toy(tmp_path)
    clean = ast.unparse(ast.parse(TOY)).splitlines()
    by_what = {}
    for _, index, change, _, what in mutate.sites(path):
        mutant = mutate.mutant_source(path, index, change).splitlines()
        assert len(mutant) == len(clean)
        assert sum(a != b for a, b in zip(clean, mutant)) == 1, what
        by_what[what] = mutant

    def expect(old, new):
        return ast.unparse(ast.parse(TOY.replace(old, new))).splitlines()

    assert by_what["Lt -> LtE"] == expect("a < b", "a <= b")
    assert by_what["drop Not"] == expect("not a", "a")
    assert by_what["3 -> 4"] == expect("= 3)", "= 4)")
