"""Every name in backticks in the README's Library tour exists in llrlab, so a
rename or deletion that leaves the README behind fails here."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import llrlab

README = Path(__file__).resolve().parents[1] / "README.md"

#: the tour's words that are Python's, numpy's or a parameter's, not llrlab names
NOT_LLRLAB = {"bool", "int", "inf", "nan", "np.unique", "bytes.translate", "max_workers"}

MODULES = [llrlab] + [importlib.import_module(f"llrlab.{m.name}") for m in pkgutil.iter_modules(llrlab.__path__)]

# a dotted name, optionally called with parameter names: `f(a, b)`
_NAME = re.compile(r"(?P<name>[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\((?P<params>[\w, ]*)\))?")


def library_tour_names() -> list[str]:
    """The names among the tour's backticked words; format strings such as
    `%d`, numbers such as `-0` and commands such as `llr-lab` are not names."""
    tour = README.read_text(encoding="utf-8").split("## Library tour", 1)[1].split("\n## ", 1)[0]
    return [word for word in re.findall(r"`([^`]+)`", tour) if _NAME.fullmatch(word)]


# what a dataclass field without a class attribute resolves to: it has no members
_FIELD = object()


def _member(obj, part: str):
    """obj's attribute or dataclass field ``part``, or None."""
    if hasattr(obj, part):
        return getattr(obj, part)
    if dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
        return _FIELD
    return None


def resolves(word: str) -> bool:
    """Whether a bare name is an attribute of llrlab or one of its modules, and
    each further part of a dotted name an attribute or dataclass field of the
    part before; a call's parameter names must be the callable's."""
    if word in NOT_LLRLAB:
        return True
    match = _NAME.fullmatch(word)
    head, *parts = match["name"].split(".")
    for obj in (_member(module, head) for module in MODULES):
        for part in parts:
            obj = None if obj is None else _member(obj, part)
        if obj is None:
            continue
        if match["params"] is None:
            return True
        wanted = {p.strip() for p in match["params"].split(",")}
        return callable(obj) and wanted <= set(inspect.signature(obj).parameters)
    return False


def test_every_library_tour_name_resolves():
    names = library_tour_names()
    assert len(names) > 40
    assert [name for name in names if not resolves(name)] == []


def test_a_deleted_or_misspelled_name_does_not_resolve():
    for word in ("spd_solve", "simdiag", "GaussianParams.sigma_inverse", "bayes_threshold(prior, costs)"):
        assert not resolves(word), word
    for word in ("smallmat", "GaussianParams.chol", "TrialResult.attempt", "bayes_threshold(prior1, costs)"):
        assert resolves(word), word
