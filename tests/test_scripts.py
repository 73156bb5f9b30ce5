import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compile_showcase_runs_clean():
    # compiles, self-checks and replays every showcase target on K3/C5/P3/K4
    assert load_script("compile_showcase").main([]) == 0


def test_format_fuzzer_runs_clean():
    # round-trips groups of up to 3 factors with moduli up to 9, which the
    # small_groups(8) tests do not reach
    assert load_script("fuzz_formats").main(["--seed", "0", "--rounds", "200"]) == 0
