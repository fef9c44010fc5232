import importlib

MODULES = ("asymptotics", "dedekind", "energy", "golden", "kernels", "wythoff")


def test_every_exported_name_resolves_once():
    for name in ("fiblat",) + tuple(f"fiblat.{m}" for m in MODULES):
        mod = importlib.import_module(name)
        names = list(mod.__all__)
        assert len(names) == len(set(names)), name
        missing = [n for n in names if not hasattr(mod, n)]
        assert not missing, (name, missing)
