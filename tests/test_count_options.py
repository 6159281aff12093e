"""tools/count_options.py: what counts as an optional value, and the pin on
the package's count. A change that adds an optional value raises the pin
and says why in CHANGES.md."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the count after the build-on-None defaults, prefactorize's scheme
# parameters, the networks' default activation, write_trajectory_csv's
# header lines, mass_center's density, FeatureScaler.identity's width, the
# step and batch limits of QuasistaticDriver.run and iter_dataset, the
# default solver field of NonlinearSystem, the registration diagnostic and
# the completed field of ComparisonReport were removed
MAX_OPTIONAL_VALUES = 87


def load_tool():
    spec = importlib.util.spec_from_file_location("count_options",
                                                  ROOT / "tools" / "count_options.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_defaults_and_dataclass_fields():
    source = '''
from dataclasses import dataclass, field

def f(a, b=1, *args, c, d=None, **kwargs):
    def inner(e=2):
        pass

@dataclass(frozen=True)
class C:
    a: int
    b: int = 0
    c: list = field(default_factory=list)
    d: object = field(repr=False)
    e: int = field(default=3, repr=False)

    def method(self, x, y=0.0):
        pass

class Plain:
    a: int = 0
'''
    assert load_tool().optional_values(ast.parse(source)) == [
        "f(b)", "f(d)", "f.inner(e)", "C.b", "C.c", "C.e", "C.method(y)"]


def test_optional_values_pinned():
    values, lines = load_tool().count()
    assert lines and min(lines.values()) > 0
    assert len(values) <= MAX_OPTIONAL_VALUES, "\n".join(values)


def test_module_lines_sum_to_the_total(capsys):
    assert load_tool().main(["--modules"]) == 0
    printed = dict(line.rsplit(" ", 1) for line in capsys.readouterr().out.splitlines())
    total = int(printed.pop("src lines"))
    printed.pop("optional values")
    assert sum(map(int, printed.values())) == total == sum(
        len(path.read_text().splitlines()) for path in (ROOT / "src").rglob("*.py"))
    assert "deepwarp.dynamics" in printed
