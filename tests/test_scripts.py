import ast
import importlib
import importlib.util
from pathlib import Path

from cosetint.model import SolveResult

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_script(name):
    return load_module(name, SCRIPTS / f"{name}.py")


def test_compile_showcase_runs_clean():
    # compiles, self-checks and replays every showcase target on K3/C5/P3/K4
    assert load_script("compile_showcase").main([]) == 0


def test_format_fuzzer_runs_clean():
    # round-trips groups of up to 3 factors with moduli up to 9, which the
    # small_groups(8) tests do not reach
    assert load_script("fuzz_formats").main(["--seed", "0", "--rounds", "200"]) == 0


def test_oracle_census_runs_clean(monkeypatch, capsys):
    census = load_script("oracle_census")
    assert census.main(["5"]) == 0
    assert "| Z_5 | P | 25 | 25 | 0 |" in capsys.readouterr().out
    # a K4 replay decided yes means a wrong reduction or a wrong oracle
    monkeypatch.setattr(census, "oracle_solve",
                        lambda inst, S, budget: SolveResult("yes", (0,) * len(inst.hgens)))
    assert census.main(["5"]) == 1


def test_every_benchmark_traced_name_resolves():
    # the benchmark's tracer wraps cosetint functions by name; a renamed or
    # deleted one would otherwise fail only its traced runs and its own tests
    spans = load_module("perfbench_spans", ROOT / "perfbench" / "spans.py")
    for mod_name, attr, _, _ in spans.LAYERS:
        owner = importlib.import_module("cosetint." + mod_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(name)), f"cosetint.{mod_name}.{attr}"


def _names_used(tree):
    """Every bare name the module reads, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _names_used(ast.parse(annotation.value, mode="eval"))
    return used


def test_no_unused_imports():
    unused = []
    for path in sorted((ROOT / "src" / "cosetint").glob("*.py")):
        if path.name == "__init__.py":  # re-exports by design
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert not unused, f"imported but never used: {unused}"
