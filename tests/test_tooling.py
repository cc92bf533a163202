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

No linter ships with the project, so ten more tests parse every module of
`src/blab` with `ast`: one fails on an imported name the module never reads,
one on a module-level private helper that nothing in `src/blab` uses, one
on a module-level public function or class that nothing in `src/blab` reads
and `perfbench` does not name, one on a method, property or dataclass field
of a class whose name nothing in `src/blab` reads and `perfbench` does not
name (these two also fail on an allow-listed test-only name that
`src/blab` reads again), one on a module-level UPPERCASE constant
that nothing in `src/blab` reads, one unless scipy's
`distance_transform_edt` is called from exactly one place, the single
transform routine every distance read goes through, one unless scipy's
`label` is called from exactly one place, the one rule that picks each
label array's type, one on a matrix
product in `kernel.py` outside its one finite-rank evaluator and two test
entry points, so that `kernel_error` cannot grow a second evaluation path,
one on a BLAS `zherk` call outside `basis.gram_matrix`, so that every Gram
comes from its aligned blocks, and one on any call of `np.meshgrid`, which
builds two float arrays of a whole grid.  One more checks that the Gram's
block is a whole number of zherk panels, and two fail unless
`geom._keep_far_tiles` is called from `_sup_outside` alone and
`geom._frame_mask` from `domain_union` and `rho2_parts` alone.

The README's quick start is run as written, and every name the README
gives in backticks as a `blab` module, a module's or a class's member, or
an ALL_CAPS constant must exist, so the documented API cannot drift from
the package unseen.
"""

import ast
import importlib
import inspect
import math
import re
import sys
from pathlib import Path

import pytest

from blab import basis, geom, kernel, lab, zeros

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(__file__).resolve().parent.parent / "src" / "blab"
README = Path(__file__).resolve().parent.parent / "README.md"


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
    # reaches is dead code; the test entry points are exactly those, so an
    # entry that src/blab reads again leaves the list
    named = _perfbench_names()
    dead, _ = _unread(lambda name, node: not name.startswith("_")
                      and isinstance(node, (ast.FunctionDef,
                                            ast.AsyncFunctionDef, ast.ClassDef))
                      and name not in named)
    names = {entry.split()[-1] for entry in dead}
    assert names == TEST_ENTRY_POINTS, sorted(names ^ TEST_ENTRY_POINTS)


# members that only the tests read yet, kept for the closed-form placement
# of certificates (ROADMAP item 1): the annulus kernel's diagonal zeros
UNREAD_MEMBERS = {"AnnulusKernel.diagonal_sign_changes"}


def _class_members(tree: ast.Module):
    """Methods, properties and annotated (dataclass) fields of the
    module-level classes, dunder methods aside, with the node that defines
    each."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            if not name.startswith("__"):
                yield f"{cls.name}.{name}", name, node


def _member_reads(tree: ast.AST, skip: set) -> set:
    """Attribute names a tree loads, and the plain names it reads, outside
    the nodes in skip; a keyword argument sets a field and reads nothing."""
    return {n.attr if isinstance(n, ast.Attribute) else n.id
            for n in ast.walk(tree) if id(n) not in skip
            and isinstance(n, (ast.Attribute, ast.Name))
            and isinstance(n.ctx, ast.Load)}


def test_every_class_member_is_read():
    # a field that nothing reads, or a method nothing calls, is dead state;
    # the allow-listed members are exactly those, so an entry that src/blab
    # reads again leaves the list
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))]
    named = _perfbench_names()
    members, dead = set(), set()
    for tree in trees:
        for qualified, name, node in _class_members(tree):
            members.add(qualified)
            inside = {id(n) for n in ast.walk(node)}
            if name not in named \
                    and not any(name in _member_reads(t, inside) for t in trees):
                dead.add(qualified)
    assert len(members) >= 100
    assert dead == UNREAD_MEMBERS, sorted(dead ^ UNREAD_MEMBERS)


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


def test_one_labeling_call_site():
    # every component label array comes from `GridDomain.component_labels`,
    # so every one is held in the smallest type that fits its count (a
    # basis term's `label()` method names the term and is no such call)
    def labeling(func):
        return (isinstance(func, ast.Name) and func.id == "label"
                or isinstance(func, ast.Attribute) and func.attr == "label"
                and getattr(func.value, "id", None) == "ndimage")

    sites = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and labeling(node.func)]
    assert len(sites) == 1 and sites[0].startswith("geom.py:"), sites


def _calls(tree, name):
    """The number of calls of a function or method `name` under tree."""
    return sum(isinstance(node, ast.Call)
               and getattr(node.func, "attr", getattr(node.func, "id", None))
               == name for node in ast.walk(tree))


def test_one_hermitian_update_call_site():
    # every zherk in src/blab is a block of gram_matrix's aligned sum, so
    # every Gram equals one whole Hermitian update at any block size
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))]
    gram = next(fn for fn in ast.walk(ast.parse(
        (SRC / "basis.py").read_text(encoding="utf-8")))
        if isinstance(fn, ast.FunctionDef) and fn.name == "gram_matrix")
    assert _calls(gram, "zherk") == 1
    assert sum(_calls(tree, "zherk") for tree in trees) == 1


def _callers(name) -> list:
    """For each call of `name` in src/blab, the module-level function that
    makes it ("" for a call outside them), sorted."""
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
                 for _ in range(_calls(fn, name))]
        callers += named + [""] * (_calls(tree, name) - len(named))
    return sorted(callers)


def test_one_tile_pruning_call_site():
    # only a closures term of rho1 prunes its query cells by tiles; a
    # boundaries term queries every boundary cell
    assert _callers("_keep_far_tiles") == ["_sup_outside"]


def test_frame_masks_built_only_by_union_and_rho2():
    # a frame-sized mask is made by one helper, for the union (which the
    # barbell target is) and for a reinhardt rho2 volume alone
    assert _callers("_frame_mask") == ["domain_union", "rho2_parts"]


def test_gram_block_is_whole_zherk_panels():
    assert basis.GRAM_BLOCK % basis.GRAM_ALIGN == 0 < basis.GRAM_BLOCK


# where kernel.py may take a matrix product: the one finite-rank evaluator,
# and the test entry points that check the fit's algebra
MATMUL_SITES = {"_feature_product", "extremal_value", "reproducing_residual"}


def test_one_kernel_evaluator():
    # fitted models and truncated closed forms evaluate through one
    # product, so every value kernel_error compares comes from eval_many's
    # own path
    tree = ast.parse((SRC / "kernel.py").read_text(encoding="utf-8"))
    sites = [(fn.name, node.lineno) for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn)
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)]
    products = sum(isinstance(node, ast.BinOp)
                   and isinstance(node.op, ast.MatMult)
                   for node in ast.walk(tree))
    assert len(sites) == products >= 4
    assert {name for name, _ in sites} == MATMUL_SITES, sites


def test_no_meshgrid_call():
    # whole-grid steps broadcast a column of x centers against a row of y
    # centers, one row slab at a time, instead of two whole float grids
    sites = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             == "meshgrid"]
    assert not sites, sites


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


MODULES = ("basis", "cli", "geom", "kernel", "lab", "zeros")


def _readme_names() -> list:
    """The backticked names of README.md outside its code blocks that are
    dotted (`blab.<module>...`, `<module>.<name>`, `<Class>.<member>`) or
    ALL_CAPS; a dotted name led by anything else (`np.meshgrid`,
    `report.csv`) names no part of the package and is left out."""
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"),
                  flags=re.DOTALL)
    spans = {" ".join(s.split()) for s in re.findall(r"`([^`]+)`", text)}
    dotted = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")
    caps = re.compile(r"[A-Z][A-Z0-9]*(_[A-Z0-9]+)*")
    return sorted(s for s in spans if caps.fullmatch(s) or dotted.fullmatch(s)
                  and (s.split(".")[0] in ("blab", *MODULES)
                       or re.match(r"_?[A-Z]", s)))


def test_readme_names_only_what_exists():
    modules = {m: importlib.import_module(f"blab.{m}") for m in MODULES}
    classes = {name: obj for mod in modules.values()
               for name, obj in vars(mod).items()
               if inspect.isclass(obj) and obj.__module__ == mod.__name__}
    names = _readme_names()
    missing = []
    for name in names:
        head, *rest = name.split(".")
        if not rest:
            # a constant: a module-level value that is no function or class
            if not any(name in vars(mod) and not callable(vars(mod)[name])
                       for mod in modules.values()):
                missing.append(name)
            continue
        if head == "blab":
            head, *rest = rest
        owner = modules.get(head, classes.get(head))
        try:
            for attr in rest:
                owner = getattr(owner, attr)
        except AttributeError:
            owner = None
        if owner is None:
            missing.append(name)
    assert len(names) >= 30
    assert not missing, missing
