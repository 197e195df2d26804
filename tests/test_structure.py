"""Structure guard: the private names one ``src/elastoray`` module takes from
another, every ``noqa`` comment and every unused import, checked against
allowlists.

A private name that crosses a module boundary, by import or as a module
attribute (``rays._hyperbolic_radius``), is allowed only where it is listed
below with its reason; so is a ``noqa`` comment, which may only mark a
one-name import kept as a re-export.  A new crossing fails here until it is
listed, and a listed one that is gone fails until it is dropped.  A name a
module imports must be used there, listed in its ``__all__`` or be one of
the listed re-exports (no pyflakes-style checker is a dependency).
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "elastoray"

# "module._name": (the modules that take it, why it crosses)
PRIVATE = {
    "symbols._apply": (("boundary", "polarization"),
                       "R xi column by column, shared by the DN, traction "
                       "and frame formulas"),
    "symbols._mat": (("boundary",),
                     "scalars as stacks of matrices, shared by the symbol "
                     "and traction formulas"),
    "symbols._outer": (("boundary", "polarization"),
                       "outer products over leading axes, shared by the "
                       "symbol, traction and frame formulas"),
    "symbols._off_boundary": (("boundary",),
                              "boundary-point errors, shared by "
                              "traction_symbol and SymbolBatch.traction"),
    "symbols._traction": (("boundary",),
                          "the traction formula, shared by traction_symbol "
                          "and SymbolBatch.traction"),
    "boundary._batched": (("polarization",), "kernel plumbing: frame_batch "
                          "runs on a fresh root core"),
    "boundary._in_gamma_delta": (("cli",), "the time-like cone rule, which "
                                 "classify's fan applies row by row"),
    "boundary._boundary_covectors": (("rays",), "boundary_covector over "
                                     "a batch, which finishes legs"),
    "errors._checked": (("boundary", "rays"), "a batch-of-one view's row, "
                        "raised if it is an error"),
    "medium._mode_coeffs": (("boundary", "engine", "rays"), "mu and "
                            "lambda + 2 mu, shared by the Lame bound, the "
                            "root quadratics, the principal symbol, the "
                            "covector sampler, incidence and the Hamilton "
                            "kernel's weights"),
    "boundary._core_of": (("polarization",), "kernel plumbing: "
                          "polarization_frame reads the scalar views' "
                          "shared root core"),
    "boundary._fro": (("polarization",), "kernel plumbing: the kernel's "
                      "Frobenius norm, for the projector residual"),
    "boundary._run": (("polarization",), "kernel plumbing: one masked "
                      "kernel run on a root core"),
    "rays._hyperbolic_radius": (("cli",), "roots puts its P-glancing row "
                                "at the compressional hyperbolic radius"),
}

# "module.name": (the modules that re-export it under noqa: F401, why)
REEXPORTS = {
    "symbols.traction_symbol": (("boundary", "polarization"),
                                "perfbench NAMED_COPIES reads it there, "
                                "until ROADMAP item 2(b)"),
    "boundary.char_roots": (("polarization", "rays"),
                            "perfbench NAMED_COPIES reads it there, until "
                            "ROADMAP item 2(b)"),
}


def _modules():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _source_module(node):
    """The elastoray module an ImportFrom reads from, or None."""
    if node.level == 1:
        return node.module
    if node.level == 0 and (node.module or "").startswith("elastoray."):
        return node.module.split(".", 1)[1]
    return None


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _crossings(name, source):
    """(module, "source.name") of every private name module ``name`` imports
    from another elastoray module or reads as an attribute of one."""
    tree = ast.parse(source)
    aliases, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            src = _source_module(node)
            for alias in node.names:
                if src is None and node.level == 1:   # from . import rays
                    aliases[alias.asname or alias.name] = alias.name
                elif src is not None and _private(alias.name):
                    found.add((name, f"{src}.{alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.add((name, f"{aliases[node.value.id]}.{node.attr}"))
    return found


def _noqa(name, source):
    """(module, "source.name") of each import under a ``noqa`` comment;
    a comment on anything but a one-name ``noqa: F401`` import gives
    (module, the comment's line)."""
    lines = {tok.start[0]: tok.string for tok in tokenize.generate_tokens(
        io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT and "noqa" in tok.string}
    imports = {node.lineno: node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ImportFrom)}
    found = set()
    for line, comment in lines.items():
        node = imports.get(line)
        if (node is None or len(node.names) != 1 or node.end_lineno != line
                or comment != "# noqa: F401"):
            found.add((name, f"line {line}: {comment}"))
        else:
            found.add((name, f"{_source_module(node)}.{node.names[0].name}"))
    return found


def _unused_imports(name, source):
    """(module, name) of each name module ``name`` imports but neither reads
    nor lists in its ``__all__``."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return {(name, n) for n in imported - used - exported}


def _expected(allowlist):
    return {(user, key) for key, (users, _) in allowlist.items()
            for user in users}


def test_private_names_cross_modules_only_where_listed():
    found = set().union(*(_crossings(n, s) for n, s in _modules().items()))
    assert sorted(found - _expected(PRIVATE)) == [], "unlisted crossing"
    assert sorted(_expected(PRIVATE) - found) == [], "stale allowlist entry"


def test_noqa_marks_only_listed_one_name_reexports():
    found = set().union(*(_noqa(n, s) for n, s in _modules().items()))
    assert sorted(found - _expected(REEXPORTS)) == [], "unlisted noqa"
    assert sorted(_expected(REEXPORTS) - found) == [], "stale allowlist entry"


def test_every_import_is_used_exported_or_listed():
    found = set().union(*(_unused_imports(n, s)
                          for n, s in _modules().items() if n != "__init__"))
    reexported = {(user, key.split(".")[1])
                  for user, key in _expected(REEXPORTS)}
    assert sorted(found - reexported) == [], "unused import"


def test_guard_sees_each_kind_of_crossing():
    source = ("from . import rays as r\n"
              "from .boundary import _core_of, char_roots  # noqa: F401\n"
              "from .symbols import adot  # noqa: F401\n"
              "x = r._hyperbolic_radius  # noqa\n")
    assert _crossings("m", source) == {("m", "boundary._core_of"),
                                       ("m", "rays._hyperbolic_radius")}
    assert _noqa("m", source) == {("m", "line 2: # noqa: F401"),
                                  ("m", "symbols.adot"),
                                  ("m", "line 4: # noqa")}
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "import os.path\n"
              "from .errors import ElastorayError, GlancingError\n"
              "from . import rays as r\n"
              "__all__ = ['GlancingError']\n"
              "x = np.zeros(3), r.probe_fan\n")
    assert _unused_imports("m", source) == {("m", "os"),
                                            ("m", "ElastorayError")}
