"""Every name a module imports is read somewhere in that module, every
module-level private name of the package is read somewhere in the package,
every function and method of the package is read somewhere in the package,
every attribute a package class sets on self is read somewhere in the
package, every dataclass field of the package but the listed few is read
somewhere in the package, the package binds exactly the names the README's
Python API lists, and only verifier.check_valid constructs OverlapError.

Package __init__ modules are skipped by the import check: their imports are
their exports.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/jampack", "tests")
                 for p in (ROOT / d).glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted((ROOT / "src/jampack").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each name bound by an import and never loaded."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


def test_detector_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit\n") == [(1, "os")]
    assert unused_imports("from a import b as c\nc()\n") == []
    assert unused_imports("import a.b\na.b.c\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: "%s/%s" % (
    p.parent.name, p.name))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: list) -> list:
    """Private names (_x, not dunders) bound at the top level of any of the
    sources by def, class or assignment that none of the sources reads, as
    a bare name or as an attribute."""
    bound = []
    read = set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                bound += [t.id for target in targets
                          for t in ast.walk(target) if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(name for name in bound if name.startswith("_")
                  and not name.startswith("__") and name not in read)


def test_detector_flags_an_unread_private_name():
    sources = ["def _a(): pass\n_b = 1\n_c, d = 2, 3\nprint(_c)\n",
               "import m\nm._a\nclass _E: pass\n__all__ = []\n"]
    assert unread_private_names(sources) == ["_E", "_b"]


def test_no_unread_private_names():
    assert unread_private_names([p.read_text() for p in PACKAGE]) == []


# argparse calls _Parser.error; nothing in the package names it
CALLED_FROM_OUTSIDE = {"_Parser.error"}


def unread_functions(sources: list) -> list:
    """Module-level functions of the sources that none of the sources reads
    by name, as an attribute or in an import, and methods and properties,
    dunders aside, that none of them reads as an attribute, as "f" and
    "Class.m"."""
    functions = []
    methods = []
    names = set()
    attrs = set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.append(node.name)
            elif isinstance(node, ast.ClassDef):
                methods += [(node.name, f.name) for f in node.body
                            if isinstance(f, ast.FunctionDef)
                            and not f.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
    names |= attrs
    return sorted([f for f in functions if f not in names]
                  + ["%s.%s" % m for m in methods if m[1] not in attrs])


def test_detector_flags_an_unread_function():
    sources = ["def a(): pass\ndef b(): pass\ndef c(): pass\nb()\n"
               "class K:\n def m(self): pass\n def n(self): pass\n"
               " def __len__(self): pass\n def b(self): pass\n",
               "from x import c\nK().n\n"]
    assert unread_functions(sources) == ["K.b", "K.m", "a"]


def test_every_function_is_read_in_the_package():
    unread = unread_functions([p.read_text() for p in PACKAGE])
    assert unread == sorted(CALLED_FROM_OUTSIDE)


def unread_self_attributes(sources: list) -> list:
    """"Class.x" for each attribute x that a method of a class of the
    sources sets on self, alone or in a tuple, and that none of the sources
    reads as an attribute: state that nothing uses."""
    bound = []
    read = set()
    for source in sources:
        tree = ast.parse(source)
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if isinstance(node, (ast.Assign, ast.AugAssign,
                                     ast.AnnAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    bound += ["%s.%s" % (cls.name, t.attr)
                              for target in targets for t in ast.walk(target)
                              if isinstance(t, ast.Attribute)
                              and isinstance(t.ctx, ast.Store)
                              and getattr(t.value, "id", None) == "self"]
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)}
    return sorted({name for name in bound
                   if name.split(".")[1] not in read})


def test_detector_flags_an_unread_self_attribute():
    sources = ["class K:\n def __init__(self):\n  self.a, self.b = 1, 2\n"
               "  self.c = 3\n  self.d = 4\n  self.d += 1\n"
               "  self.e = []\n  self.e[0] = 5\n"
               " def m(self):\n  return self.a\n",
               "class L:\n def n(self, k):\n  k.c\n  self.f: int = 0\n"]
    assert unread_self_attributes(sources) == ["K.b", "K.d", "L.f"]


def test_no_unread_self_attributes():
    assert unread_self_attributes([p.read_text() for p in PACKAGE]) == []


# Fields no package code reads yet, kept for what reads them outside it:
# the tests' oracles open_sides and wall_to_wall_path read partner, and
# ROADMAP items 1, 2 and 14 plan to read partner and gap in the package;
# terminated_at is the public chain record's account of why a chain is
# short, which the tests' exact-chain oracle compares
UNREAD_FIELDS = {"BridgeChain.terminated_at", "ContactGraph.gap",
                 "ContactGraph.partner"}


def unread_dataclass_fields(sources: list) -> list:
    """"Class.x" for each annotated field x of a dataclass of the sources
    that none of the sources reads as an attribute."""
    fields = []
    read = set()
    for source in sources:
        tree = ast.parse(source)
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            # @dataclass, @dataclass(...), @dataclasses.dataclass(...)
            decorators = [getattr(d, "func", d) for d in cls.decorator_list]
            if "dataclass" in [getattr(d, "id", getattr(d, "attr", None))
                               for d in decorators]:
                fields += ["%s.%s" % (cls.name, node.target.id)
                           for node in cls.body
                           if isinstance(node, ast.AnnAssign)
                           and isinstance(node.target, ast.Name)]
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in fields if name.split(".")[1] not in read)


def test_detector_flags_an_unread_dataclass_field():
    sources = ["@dataclass\nclass K:\n a: int\n b: int = 0\n c = 1\n"
               "@dataclasses.dataclass(eq=False)\nclass L:\n d: int\n"
               "class M:\n e: int\n",
               "k.a = 1\nprint(k.b)\n"]
    assert unread_dataclass_fields(sources) == ["K.a", "L.d"]


def test_every_dataclass_field_is_read_in_the_package():
    unread = unread_dataclass_fields([p.read_text() for p in PACKAGE])
    assert unread == sorted(UNREAD_FIELDS)


def test_package_binds_the_readme_python_api():
    tree = ast.parse((ROOT / "src/jampack/__init__.py").read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets}
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Python API\n", 1)[1].split("\n#", 1)[0]
    assert bound - {"__version__"} == set(re.findall(r"`(\w+)`", section))


def overlap_error_makers(sources: dict) -> list:
    """"module.owner" for each top-level def or class of the sources, keyed
    by module name, that calls OverlapError by name or as an attribute;
    other top-level code is owned by "<module>"."""
    makers = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = getattr(node, "name", "<module>")
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and "OverlapError" in (
                        getattr(call.func, "id", None),
                        getattr(call.func, "attr", None)):
                    makers.add("%s.%s" % (module, owner))
    return sorted(makers)


def test_detector_flags_an_overlap_error_maker():
    sources = {"a": "def f():\n    raise OverlapError('x', None)\n"
                    "def g():\n    try: f()\n    except OverlapError: pass\n",
               "b": "class K:\n def m(self): raise v.OverlapError(1, 2)\n"
                    "e = OverlapError('y', None)\n"}
    assert overlap_error_makers(sources) == ["a.f", "b.<module>", "b.K"]


def test_only_check_valid_constructs_overlap_error():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert overlap_error_makers(sources) == ["verifier.check_valid"]
