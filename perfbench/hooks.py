"""Wrapping of contact_hj functions and methods from outside the program.

A target is written ``"module:qualname"``, e.g.
``"contact_hj.solver:SweepKernel.step"``. Methods are replaced on their class,
so every instance sees the wrapper. Module-level functions are also imported
by name into other modules (``experiments`` holds its own reference to
``backtrace``), so every loaded ``contact_hj`` module attribute that holds the
original object is rebound as well. A missing target raises HookError: a
rename in the program must stop the benchmark, not turn a metric into zero.
"""

import importlib
import sys


class HookError(RuntimeError):
    """A hook target does not exist in the program under test."""


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise HookError(f"hook target {target}: {exc}") from exc
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise HookError(f"hook target {target}: no {part!r}")
    attr = parts[-1]
    scope = vars(owner)
    if attr not in scope or not callable(scope[attr]):
        raise HookError(f"hook target {target}: no callable {attr!r}")
    return owner, attr, scope[attr]


def install(target: str, make_wrapper) -> list:
    """Replace the target by make_wrapper(original) everywhere it is bound.

    Returns the (owner, attribute, original) triples that undo the change.
    """
    owner, attr, original = _resolve(target)
    wrapper = make_wrapper(original)
    undo = [(owner, attr, original)]
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return undo
    for name, module in list(sys.modules.items()):
        if module is owner or not name.startswith("contact_hj"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                undo.append((module, key, original))
                setattr(module, key, wrapper)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
