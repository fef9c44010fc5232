import importlib

MODULES = ("asymptotics", "dedekind", "energy", "golden", "kernels", "verify", "wythoff")


def test_every_exported_name_resolves_once():
    for name in ("fiblat",) + tuple(f"fiblat.{m}" for m in MODULES):
        mod = importlib.import_module(name)
        names = list(mod.__all__)
        assert len(names) == len(set(names)), name
        missing = [n for n in names if not hasattr(mod, n)]
        assert not missing, (name, missing)


def test_energy_name_is_the_function_and_the_module_stays_reachable():
    import fiblat
    import fiblat.energy as via_import
    from fiblat.energy import fib_sum

    assert callable(fiblat.energy) and via_import is fiblat.energy
    mod = importlib.import_module("fiblat.energy")
    assert mod is not fiblat.energy and mod.fib_sum is fib_sum
    assert mod.energy is fiblat.energy
