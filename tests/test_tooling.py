"""The benchmark's tracer and inputs still fit the package they drive.

`perfbench` times layers by rebinding the functions and methods that
`perfbench/layers.py` names, from outside `src/blab`.  One test installs
those wrappers on the live modules and checks that each one is bound, that
a traced call records spans, and that every binding is restored on exit, so
that a refactor which unbinds a traced name fails here and not only in a
traced benchmark run.  Another builds every input of
`perfbench/workloads.py` through the calls `perfbench/run.py` makes, so
that a signature change cannot silently break the benchmark's inputs.  The
benchmark files are imported, never changed.

No linter ships with the project, so five more tests parse every module of
`src/blab` with `ast`: one fails on an imported name the module never reads,
one on a module-level private helper that nothing in `src/blab` uses, one
on a module-level public function or class that nothing in `src/blab` reads
and `perfbench` does not name, one on a module-level UPPERCASE constant
that nothing in `src/blab` reads, and one unless scipy's
`distance_transform_edt` is called from exactly one place, the single
transform routine every distance read goes through.
"""

import ast
import math
import sys
from pathlib import Path

import pytest

from blab import basis, geom, kernel, lab, zeros

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(__file__).resolve().parent.parent / "src" / "blab"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import spans
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return layers, spans, workloads


def test_layer_targets_install_and_restore(bench):
    layers, spans, _ = bench
    modules = [geom, basis, kernel, zeros, lab]
    targets = layers.targets(*modules)
    assert "eval_many" in vars(kernel.KernelModel)
    classes = [t.owner for t in targets if isinstance(t.owner, type)]
    before = {owner: dict(vars(owner)) for owner in modules + classes}
    rec = spans.Recorder()
    with spans.Patch(rec, targets, modules):
        for t in targets:
            assert getattr(t.owner, t.attr) is not before[t.owner][t.attr]
        U = geom.make_domain(geom.disc(0, 1), h=0.05)
        model = kernel.fit_kernel(U, basis.monomials(0, 4))
        model.eval(0.1, 0.2)
        # a chained fit, as an exhaustion run makes, passes the tracer too
        inner, outer = geom.interior_exhaustion(U, [0.2, 0.1]).members
        B = basis.monomials(0, 4)
        first = kernel.fit_kernel(inner, B)
        n_before = len(rec.spans)
        chained = kernel.fit_kernel(outer, B, inner=first)
    names = {s.name for s in rec.spans}
    assert {"geom.make_domain", "kernel.fit", "basis.gram",
            "kernel.eval_many", "kernel.whiten"} <= names
    assert "basis.gram" in {s.name for s in rec.spans[n_before:]}
    assert chained.gram.conditioning <= rec.maxima["basis.cond_max"]
    # the tracer reads the fitted Gram's conditioning
    assert math.isfinite(rec.maxima["basis.cond_max"])
    for owner, saved in before.items():
        now = vars(owner)
        assert now.keys() == saved.keys()
        assert all(now[k] is v for k, v in saved.items()), owner


def test_workload_inputs_build(bench):
    _, _, workloads = bench
    for name in workloads.WORKLOADS:
        cycle = workloads.generate(name, seed=3)
        assert cycle, name
        for inp in cycle:
            for raw in inp.get("configs", ()):
                cfg = lab.config_from_dict(raw)
                assert cfg.experiment == raw["experiment"]
            for v in inp.get("verdicts", ()):
                cfg = zeros.ProbeConfig(seed=v["probe_seed"])
                assert cfg.seed == v["probe_seed"] and cfg.w0_points is None
                assert len(lab.default_basis_for(v["model"],
                                                 tuple(v["window"])))
            assert ("configs" in inp) != ("verdicts" in inp), inp["id"]


def test_no_module_imports_a_name_it_never_uses():
    # an import whose line carries `# noqa: F401` is a deliberate re-export
    unused = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                    or getattr(node, "module", None) == "__future__" \
                    or "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, unused


def _module_definitions(tree: ast.Module):
    """Module-level functions, classes and assigned names, with the node
    that defines each."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            yield name, node


def _references(tree: ast.AST, skip: set) -> set:
    """Names a tree reads, as plain names, attributes or imported names,
    outside the nodes in skip."""
    refs = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def _unread(kind) -> tuple[list, int]:
    """Module-level definitions of src/blab for which kind(name, node)
    holds and that nothing in src/blab reads outside the definition, and
    how many such definitions there are."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    dead, count = [], 0
    for module, tree in trees.items():
        for name, node in _module_definitions(tree):
            if not kind(name, node):
                continue
            count += 1
            inside = {id(n) for n in ast.walk(node)}
            if not any(name in _references(t, inside) for t in trees.values()):
                dead.append(f"{module}:{node.lineno} {name}")
    return dead, count


def test_every_private_helper_is_used():
    dead, _ = _unread(lambda name, node: name.startswith("_")
                      and not name.startswith("__"))
    assert not dead, dead


# verification entry points that only the tests call
TEST_ENTRY_POINTS = {"volume", "extremal_value", "reproducing_residual",
                     "kernel_error_c2"}


def _perfbench_names() -> set:
    """Names that perfbench/*.py reads, and its strings that spell a name
    (the attributes `layers.targets` rebinds)."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names |= _references(tree, set())
        names |= {n.value for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and isinstance(n.value, str)
                  and n.value.isidentifier()}
    return names


def test_every_public_helper_is_used():
    # a public function or class that no program path and no benchmark
    # reaches is dead code
    named = _perfbench_names() | TEST_ENTRY_POINTS
    dead, _ = _unread(lambda name, node: not name.startswith("_")
                      and isinstance(node, (ast.FunctionDef,
                                            ast.AsyncFunctionDef, ast.ClassDef))
                      and name not in named)
    assert not dead, dead
    defined = {name for path in SRC.glob("*.py") for name, _ in
               _module_definitions(ast.parse(path.read_text(encoding="utf-8")))}
    assert TEST_ENTRY_POINTS <= defined


def test_every_module_constant_is_read():
    # a policy constant that no code reads is a setting that does nothing
    dead, count = _unread(lambda name, node: name.isupper()
                          and isinstance(node, (ast.Assign, ast.AnnAssign)))
    assert count >= 30
    assert not dead, dead


def test_one_distance_transform_call_site():
    # whole fields and windows come from one routine (`geom._edt`), so a
    # window's exactness argument covers every distance value the lab reads
    sites = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             == "distance_transform_edt"]
    assert len(sites) == 1, sites
