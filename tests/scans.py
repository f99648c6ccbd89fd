"""Shared machinery of the contract scans.

The tier-1 AST scans (dead code, unset defaults, the store contract and
the pure-hash contract) read the source through :func:`trees`, which
parses each ``*.py`` file under :data:`TOPS` at most once per session,
whichever scan asks first.  They share one name-use rule,
:func:`mentions`, indexed per module by :func:`names`, and judge every
``{key: reason}`` allowlist with :func:`judge`, which fails an entry the
scan no longer finds or no longer sees as well as a finding no entry
explains, so no allowlist can go stale.
"""

import ast
import functools
import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"
TOPS = ("src", "bench", "examples", "tests", "benchmarks")

_IDENT = re.compile(r"[A-Za-z_]\w*")
_NAME_STRING = re.compile(r"[\w.:]+")


@functools.lru_cache(maxsize=None)
def _parse(path):
    return ast.parse(path.read_text(), str(path))


def trees(*tops):
    """``path -> module`` of every ``*.py`` file under the trees ``tops``."""
    return {
        path: _parse(path) for top in tops for path in sorted((REPO / top).rglob("*.py"))
    }


@functools.lru_cache(maxsize=None)
def run(find, *tops):
    """``find`` over the trees ``tops``, once per session."""
    return find(trees(*tops))


def mentions(node):
    """Every name ``node`` uses, one entry per use.

    A name is used where it is read as a variable or attribute, imported,
    passed as a keyword, or written as a whole string (``getattr`` names,
    ``module:function`` specs, patch tables); prose in docstrings and
    comments, and the name a definition binds, do not count.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from sub.name.split(".")
        elif isinstance(sub, ast.keyword) and sub.arg:
            yield sub.arg
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if _NAME_STRING.fullmatch(sub.value):
                yield from _IDENT.findall(sub.value)


@functools.lru_cache(maxsize=None)
def names(tree):
    """The set of names a parsed module uses, by :func:`mentions`."""
    return frozenset(mentions(tree))


def judge(found, seen, allowed):
    """``(unexplained, stale)`` of a scan's findings against its allowlist.

    ``found`` holds the keys the scan flags, ``seen`` every key it looked
    at, and ``allowed`` maps each key that may be flagged to its reason.
    ``unexplained`` lists the flagged keys ``allowed`` lacks; ``stale``
    the entries of ``allowed`` the scan no longer flags or no longer sees.
    A scan passes only when both are empty.
    """
    unexplained = sorted(set(found) - set(allowed))
    stale = sorted(
        f"{key} ({'no longer found' if key in seen else 'no longer exists'})"
        for key in set(allowed) - set(found)
    )
    return unexplained, stale
