"""The reach pass: a ``def`` is reached when its code object ran.

The full traced pass (every scenario, gated bench and perf workload)
takes minutes and runs in CI as ``python -m benchmarks.reach --check``;
these tests drive its parts over ``fixtures/reachpkg``.
"""

import importlib.util
from pathlib import Path

from benchmarks import reach

PACKAGE = Path(__file__).parent / "fixtures" / "reachpkg"


def fresh_module():
    """Execute ``reachpkg/mod.py`` anew, so its import-time calls (the
    decorator) happen inside whatever tracer is installed."""
    spec = importlib.util.spec_from_file_location(
        "reachpkg_mod", PACKAGE / "mod.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def names(functions):
    return sorted(fn.name for fn in functions)


def test_exactly_the_function_that_never_ran_is_unreached():
    def run():
        module = fresh_module()
        module.reached()
        module.decorated()

    reached = reach.reached_during([run])
    dead = reach.unreached(reach.functions(PACKAGE), reached)
    assert names(dead) == ["reachpkg.mod.unreached"]
    # The decorated function is matched on its decorator's line.
    decorated, = (fn for fn in reach.functions(PACKAGE)
                  if fn.name == "reachpkg.mod.decorated")
    assert (PACKAGE / "mod.py").read_text().splitlines()[
        decorated.line - 1] == "@passthrough"


def test_a_function_run_only_inside_a_benchmark_is_reached(tmp_path):
    # pytest-benchmark's PauseInstrumentation switches sys.settrace off
    # inside benchmark.pedantic, where ``once`` runs every experiment;
    # the bench pass must run with --benchmark-disable to see it.
    bench = tmp_path / "bench_fixture.py"
    bench.write_text(
        "import importlib.util\n"
        "from benchmarks.common import once\n\n"
        "def test_experiment(benchmark):\n"
        "    spec = importlib.util.spec_from_file_location(\n"
        f"        'reachpkg_bench_mod', {str(PACKAGE / 'mod.py')!r})\n"
        "    module = importlib.util.module_from_spec(spec)\n"
        "    spec.loader.exec_module(module)\n"
        "    assert once(benchmark, module.reached) == 1\n")
    reached = reach.reached_during([lambda: reach.bench_pass([str(bench)])])
    assert "reachpkg.mod.reached" not in names(
        reach.unreached(reach.functions(PACKAGE), reached))


def test_check_fails_on_an_unlisted_dead_function_until_it_is_exempted(
        capsys):
    everything = reach.functions(PACKAGE)
    dead = [fn for fn in everything if fn.name == "reachpkg.mod.unreached"]
    assert reach.report(dead, everything, {}, check=True) == 1
    assert "unreached src functions: 1 (exempt: 0)" in capsys.readouterr().out

    exempt = {"reachpkg.mod.unreached": "kept on purpose"}
    assert reach.report(dead, everything, exempt, check=True) == 0
    assert "unreached src functions: 0 (exempt: 1)" in capsys.readouterr().out
    # Without --check the list is only printed.
    assert reach.report(dead, everything, {}, check=False) == 0


def test_an_exemption_that_names_no_function_fails_the_check(capsys):
    everything = reach.functions(PACKAGE)
    assert reach.report([], everything, {"reachpkg.mod.gone": "deleted"},
                        check=True) == 1
    assert "'reachpkg.mod.gone' names no function" in capsys.readouterr().out


def test_every_exemption_gives_its_reason():
    assert all(reason.strip() for reason in reach.EXEMPT.values())
