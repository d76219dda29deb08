"""Source hygiene: every name a program module imports at module level is
used in that module (``__init__.py`` is skipped, since it imports to
re-export), the CLI defers only the model stack, every public and every
private name is read by the program, every docstring cross-reference
names a live object, the benchmark's tracer installs,
every attribute set on ``self`` is read, the model traces only the layers
Grad-CAM explains, and backward closures hold arrays and plain values
only."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from sarunet import Tape, Tensor4, tensor
from sarunet.errors import UsageError
from sarunet.gradcam import explain_suite, suite_grid
from sarunet.model import ModelConfig, build
from sarunet.train import mse_loss

SRC = Path(__file__).resolve().parent.parent / "src" / "sarunet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """Name bound by each module-level import, with its line number."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.partition(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [f"{path.name}:{line} {name}" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"imported but never used: {unused}"


MODEL_STACK = ("blocks", "model", "train", "metrics", "gradcam")


def test_cli_imports_inside_functions_only_the_model_stack():
    """Everything a command loads anyway is imported once at module level;
    an import inside a function names a module of the model stack."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    local = [node for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    stray = [f"cli.py:{node.lineno}" for node in local
             if not (isinstance(node, ast.ImportFrom) and node.level == 1
                     and node.module in MODEL_STACK)]
    assert not stray, f"function-local imports outside the model stack: {stray}"


def test_importing_the_cli_loads_no_model_stack():
    """``synth`` needs no model, so importing the CLI must not load the ops
    or any module of the model stack."""
    code = "import sys, sarunet.cli; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                capture_output=True, text=True).stdout.split())
    assert "sarunet.cli" in loaded
    assert not loaded & {f"sarunet.{m}" for m in ("ops",) + MODEL_STACK}


# Public names the program itself never reads, each with its reason.
UNREAD_PUBLIC_NAMES = {
    # The scalar counting reference that tests/test_metrics.py's
    # per_lead_reference checks evaluate_setup's one-pass counts against;
    # the benchmark's tracer also wraps it by name.
    ("metrics", "confusion"),
}


def public_names(path):
    """The names in a module's ``__all__``, or None if it has none."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if public_names(p) is not None],
                         ids=lambda p: p.name)
def test_every_public_name_is_read_by_the_program(path):
    """Each name in a module's ``__all__`` is read somewhere in the program:
    a name that only tests read is dead code (and the benchmark's tracer
    wraps every name in ``ops.__all__`` as an op kind)."""
    read = program_reads()
    unread = [name for name in public_names(path)
              if name not in read and (path.stem, name) not in UNREAD_PUBLIC_NAMES]
    assert not unread, f"{path.name} __all__ names the program never reads: {unread}"


def program_reads():
    """Every name the program loads and every attribute it reads."""
    read = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        read |= {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return read


def private_names(tree):
    """Each private module-level function, class and constant, and each
    private method: a name with one leading underscore, with its line."""
    defs = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs += [f for f in node.body if isinstance(f, ast.FunctionDef)]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs += [t for t in targets if isinstance(t, ast.Name)]
    for node in defs:
        name = node.id if isinstance(node, ast.Name) else node.name
        if name.startswith("_") and not name.startswith("__"):
            yield name, node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_private_name_is_read_by_the_program(path):
    """Each private function, class, constant and method is read somewhere
    in the program: one that nothing reads, or that only tests read, is
    dead code."""
    read = program_reads()
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = [f"{path.name}:{line} {name}" for name, line in private_names(tree)
              if name not in read]
    assert not unread, f"private names the program never reads: {unread}"


# A Sphinx cross-reference in a docstring: its role and target, with an
# optional leading ``~``.
DOC_REF = re.compile(r":(func|meth|attr|data|class|mod):`~?([\w.]+)`")
_MISSING = object()


def docstrings(tree):
    """Each docstring of a module, its classes and its functions, with the
    names of the classes around it."""
    def visit(node, owner):
        doc = ast.get_docstring(node, clean=False)
        if doc:
            yield doc, owner
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, owner + (child.name,))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, owner)
    yield from visit(tree, ())


def member(obj, name):
    """``obj``'s attribute ``name``, or ``"self." + name`` for an instance
    attribute that a class's own code sets on ``self``; ``_MISSING`` when
    there is neither."""
    if hasattr(obj, name):
        return getattr(obj, name)
    if isinstance(obj, type):
        tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
        if any(isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
               and isinstance(n.value, ast.Name) and n.value.id == "self" and n.attr == name
               for n in ast.walk(tree)):
            return f"self.{name}"
    return _MISSING


def doc_target(target, module, owner):
    """What a docstring reference names: a full ``sarunet.`` path, read from
    its longest module prefix (``sarunet.tensor`` is also a function's
    name in the package), or a name of the enclosing classes (innermost
    first) or of the module, followed by attributes. ``_MISSING`` when any
    step does not resolve."""
    head, *rest = target.split(".")
    if head == "sarunet":
        parts = target.split(".")
        depth = max(i for i in range(1, len(parts) + 1)
                    if ".".join(parts[:i]) in sys.modules)
        obj, rest = sys.modules[".".join(parts[:depth])], parts[depth:]
    else:
        scopes = [module]
        for name in owner:
            scopes.insert(0, getattr(scopes[0], name))
        obj = next((found for found in (member(s, head) for s in scopes)
                    if found is not _MISSING), _MISSING)
    for name in rest:
        if obj is _MISSING:
            break
        obj = member(obj, name)
    return obj


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_docstring_reference_resolves(path):
    """Each ``:func:``, ``:meth:``, ``:attr:``, ``:data:``, ``:class:`` and
    ``:mod:`` target in a docstring names a live object of its kind: a
    callable for a function or method, a class for a class, a module for a
    module. A renamed or deleted name leaves no stale reference."""
    for stem in (p.stem for p in MODULES):
        importlib.import_module(f"sarunet.{stem}")   # so sarunet.<module> paths resolve
    module = importlib.import_module(f"sarunet.{path.stem}" if path.stem != "__init__"
                                     else "sarunet")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    kinds = {"func": callable, "meth": callable, "class": inspect.isclass,
             "mod": inspect.ismodule}
    stale = []
    for doc, owner in docstrings(tree):
        for role, target in DOC_REF.findall(doc):
            obj = doc_target(target, module, owner)
            if obj is _MISSING or not kinds.get(role, lambda o: True)(obj):
                stale.append(f":{role}:`{target}` in {'.'.join(owner) or path.stem}")
    assert not stale, f"{path.name} docstring references to no live name of their kind: {stale}"


def test_benchmark_tracer_installs():
    """The benchmark's tracer wraps program functions and methods by name,
    so deleting or renaming one of them breaks its install. It runs in a
    subprocess because installing patches the sarunet modules for the whole
    process."""
    root = SRC.parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        str(root / d) for d in ("src", "perfbench"))}
    proc = subprocess.run([sys.executable, "-c", "import tracing; tracing.Tracer().install()"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


_TRACED_EXPLAIN = """
import sys
import tracing
tracer = tracing.Tracer().install()
from sarunet.cli import main
out = sys.argv[1]
assert main(["synth", "--seed", "7", "--frames", "60", "--size", "32", "--wind", "1,0",
             "--out", out + "/s.nwds"]) == 0
assert main(["train", "--data", out + "/s.nwds", "--base-channels", "4",
             "--cbam-reduction", "4", "--in-frames", "6", "--lead-minutes", "30",
             "--seed", "1", "--batch-size", "4", "--max-epochs", "2",
             "--out-dir", out + "/run"]) == 0
backward_s = tracer.totals()["tensor.backward_s"]
assert main(["explain", "--checkpoint", out + "/run/model.ckpt", "--data",
             out + "/s.nwds", "--targets", "all", "--out-dir", out + "/maps"]) == 0
assert tracer.totals()["tensor.backward_s"] > backward_s     # explain's pass ran traced
"""


def test_benchmark_tracer_runs_an_explain(tmp_path):
    """A toy-size ``explain`` under the installed tracer, in a subprocess:
    the tracer wraps calls such as ``Tape.backward(tape, loss)`` with their
    exact signatures, so a change to one of them breaks here, as it would
    break every traced benchmark run."""
    root = SRC.parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        str(root / d) for d in ("src", "perfbench"))}
    proc = subprocess.run([sys.executable, "-c", _TRACED_EXPLAIN, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "maps" / "index.csv").read_text().splitlines()[1:]
    assert len(rows) == 32 and any(float(r.rsplit(",", 1)[1]) > 0.0 for r in rows)


def test_every_attribute_set_on_self_is_read():
    """Each attribute a program module assigns on ``self`` is loaded, by that
    name, somewhere in the program: state that nothing reads is dead."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in SRC.glob("*.py")}
    loaded = {n.attr for tree in trees.values() for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = sorted({f"{name}: self.{n.attr}" for name, tree in trees.items()
                     for n in ast.walk(tree)
                     if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                     and isinstance(n.value, ast.Name) and n.value.id == "self"
                     and n.attr not in loaded})
    assert not unread, f"attributes assigned but never read: {unread}"


@pytest.mark.parametrize("variant", ["sar", "smaat"])
def test_traceable_layers_are_the_explained_layers(variant):
    """``Model.trace_names()`` is the one list of traceable layers: Grad-CAM
    explains each of them, and refuses a layer outside it."""
    m = build(ModelConfig(in_channels=2, out_channels=1, base_channels=2,
                          cbam_reduction=2, variant=variant), seed=0)
    x = tensor(np.random.default_rng(1).random((1, 2, 16, 16)).astype(np.float32) * 30.0)
    names = sorted(m.trace_names())
    maps = explain_suite(m, x, names, unit="raw", threshold_mm_per_h=0.0)
    assert [hm.layer for hm in maps] == names
    for name in ("enc0.pool_in", "dec0.reduce", "out"):
        with pytest.raises(UsageError, match=re.escape(repr(name))):
            explain_suite(m, x, [name], unit="raw")
    if variant == "sar":
        assert set(suite_grid(m)) == m.trace_names()


def test_backward_closures_hold_no_tensor_or_class(monkeypatch):
    """No backward closure cell of a taped training step or of an explain
    pass holds a ``Tensor4`` (which would keep an op output alive through
    the tape) or a class object (which a walk that sizes the arrays behind
    each cell cannot read)."""
    m = build(ModelConfig(in_channels=2, out_channels=1, base_channels=2,
                          cbam_reduction=2), seed=0)
    rng = np.random.default_rng(2)
    records = []
    real_backward = Tape.backward

    def backward(tape, loss):
        records.append(list(tape.ops))          # backward consumes the tape
        real_backward(tape, loss)

    monkeypatch.setattr(Tape, "backward", backward)
    with Tape() as tape:
        y, _ = m.forward(tensor(rng.random((2, 2, 16, 16)).astype(np.float32)), train=True)
        loss = mse_loss(y, tensor(rng.random((2, 1, 16, 16)).astype(np.float32)))
    tape.backward(loss)
    x = tensor(rng.random((1, 2, 16, 16)).astype(np.float32) * 30.0)
    explain_suite(m, x, list(suite_grid(m)), unit="raw", threshold_mm_per_h=0.0)
    assert len(records) == 2
    names = set()
    for recs in records:
        for rec in recs:
            names.add(rec.name)
            for cell in rec.backward_fn.__closure__ or ():
                v = cell.cell_contents
                assert not isinstance(v, (Tensor4, type)), f"{rec.name} keeps {v!r}"
    assert {"conv2d", "batch_norm", "mul", "mean_all", "sum_all",
            "global_pool_max_channel"} <= names
