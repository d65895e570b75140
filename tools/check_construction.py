#!/usr/bin/env python
"""Lint: architectural boundaries the type checker cannot see.

Four rules, all enforced by walking the AST of every Python file under
the given roots:

* **registry boundary** — concrete scheme classes (``TdmNetwork``,
  ``CircuitNetwork``, ``WormholeNetwork``, ``MultiSwitchTdmNetwork``)
  may only be constructed inside ``src/repro/networks/`` (the registry's
  factories) and ``tests/``; everything else resolves through
  ``repro.networks.registry.build_network``.
* **topology boundary** — the switch-graph builders (``full_mesh``,
  ``fat_tree``, ``line``) may only be called inside ``src/repro/topo/``,
  ``src/repro/networks/`` and ``tests/``.  Sweeps pick a composite
  scheme (``mesh-tdm``/``fattree-tdm``) and pass topology knobs through
  ``RunSpec.options``, keeping experiment cells plain cacheable data.
* **executor boundary** — ``multiprocessing`` and
  ``ProcessPoolExecutor`` may only appear inside ``src/repro/exec/`` and
  ``tests/``.  All fan-out goes through ``repro.exec.map_cells``, whose
  seed-derivation, ordered-reduction, and worker-reset rules are what
  make parallel sweeps bit-identical to serial ones; an ad-hoc pool
  would bypass every one of them.
* **no uncalled public surface** — every public function, class and
  method defined under ``src/repro`` is referenced (by name or attribute)
  somewhere in ``src``, ``benchmarks``, ``examples`` or ``tools``
  outside its own definition.  ``__all__`` strings and re-export imports
  do not count, and neither do tests: a name only its own tests call is
  dead code.  Nor does a use inside a def that is itself flagged: the
  scan repeats until no more defs fall, so a caller that is dead itself
  cannot keep its callee alive.  :data:`DELIBERATE_API` lists the
  exceptions, each with the reason it stays, and uses inside them count;
  an entry that is gone or referenced again is flagged too, so the list
  can only shrink.  Given explicit roots, definitions and references
  both come from those roots.

Run:  python tools/check_construction.py            # lint the repo
      python tools/check_construction.py PATH ...   # lint specific roots
"""

from __future__ import annotations

import ast
import sys
from collections.abc import Container
from pathlib import Path

SCHEME_CLASSES = frozenset(
    {
        "TdmNetwork",
        "CircuitNetwork",
        "WormholeNetwork",
        "MultiSwitchTdmNetwork",
        "IslipNetwork",
    }
)

#: switch-graph constructors only the topo layer, the registry's composite
#: factories, and tests may call directly; sweeps and examples pick a
#: topology by scheme name + options so cells stay plain cacheable data
TOPO_BUILDERS = frozenset({"full_mesh", "fat_tree", "line"})

#: process-pool machinery only repro.exec may touch
POOL_MODULES = frozenset({"multiprocessing"})
POOL_CLASSES = frozenset({"ProcessPoolExecutor"})

#: directories whose files may construct scheme classes directly
SCHEME_EXEMPT_PARTS = (
    ("src", "repro", "networks"),
    ("tests",),
)

#: directories whose files may use process pools directly
POOL_EXEMPT_PARTS = (
    ("src", "repro", "exec"),
    ("tests",),
)

#: directories whose files may build switch-graph topologies directly
TOPO_EXEMPT_PARTS = (
    ("src", "repro", "topo"),
    ("src", "repro", "networks"),
    ("tests",),
)

DEFAULT_ROOTS = ("src", "examples", "benchmarks", "tools", "tests")

#: where a use of the public surface (defined under src/repro) counts
API_USE_ROOTS = ("src", "benchmarks", "examples", "tools")

#: public names nothing in API_USE_ROOTS references, kept on purpose:
#: ``oracle`` — a test checks the production path against it;
#: ``paper`` — a model of a paper artifact or constant;
#: ``documented`` — an entry point the docs promise to users.
DELIBERATE_API: dict[str, str] = {
    "repro.compiled.coloring.verify_coloring": "oracle",
    "repro.nic.flow.FlowLedger.total_delivered": "oracle",
    "repro.sched.slarray.PassOutcome.toggle_matrix": "oracle",
    "repro.sched.slarray.wavefront_reference": "oracle",
    "repro.fabric.timing.FabricTiming.digital": "paper",
    "repro.fabric.timing.FabricTiming.optical": "paper",
    "repro.hw.rtl.SLArrayNetlist": "paper",
    "repro.hw.rtl.SLArrayNetlist.gate_count": "paper",
    "repro.hw.rtl.SLCellGates.lut4_estimate": "paper",
    "repro.params.SystemParams.circuit_setup_ps": "paper",
    "repro.params.SystemParams.pipe_latency_ps": "paper",
    "repro.networks.registry.run_scheme": "documented",
    "repro.obs.exporters.from_jsonl": "documented",
    "repro.sched.priority.RandomPriority": "documented",
    "repro.sim.clock.bytes_to_ps": "documented",
    "repro.sim.clock.ps_to_bytes": "documented",
    "repro.sim.clock.ps_to_ns": "documented",
    "repro.traffic.synthetic.BitComplementPattern": "documented",
    "repro.traffic.synthetic.HotspotPattern": "documented",
    "repro.traffic.synthetic.PermutationPattern": "documented",
    "repro.traffic.synthetic.TornadoPattern": "documented",
    "repro.traffic.synthetic.UniformRandomPattern": "documented",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _exempt(
    path: Path, repo_root: Path, exempt_parts: tuple[tuple[str, ...], ...]
) -> bool:
    try:
        rel = path.relative_to(repo_root).parts
    except ValueError:  # outside the repo (explicit roots): never exempt
        return False
    return any(rel[: len(parts)] == parts for parts in exempt_parts)


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _parse(path: Path) -> ast.AST | list[tuple[int, str]]:
    try:
        return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except SyntaxError as exc:  # a broken file is its own problem
        return [(exc.lineno or 0, f"syntax error: {exc.msg}")]


def find_violations(path: Path) -> list[tuple[int, str]]:
    """Direct scheme constructions in one file, as (line, class) pairs."""
    tree = _parse(path)
    if isinstance(tree, list):
        return tree
    return [
        (node.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (name := _called_name(node)) in SCHEME_CLASSES
    ]


def find_topo_violations(path: Path) -> list[tuple[int, str]]:
    """Direct topology-builder calls in one file, as (line, name) pairs."""
    tree = _parse(path)
    if isinstance(tree, list):
        return tree
    return [
        (node.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (name := _called_name(node)) in TOPO_BUILDERS
    ]


def find_pool_violations(path: Path) -> list[tuple[int, str]]:
    """Process-pool imports/uses in one file, as (line, what) pairs."""
    tree = _parse(path)
    if isinstance(tree, list):
        return tree
    out: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in POOL_MODULES:
                    out.append((node.lineno, f"import {alias.name}"))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] in POOL_MODULES:
                out.append((node.lineno, f"from {module} import ..."))
            else:
                for alias in node.names:
                    if alias.name in POOL_CLASSES:
                        out.append(
                            (node.lineno, f"from {module} import {alias.name}")
                        )
        elif isinstance(node, ast.Call):
            if (name := _called_name(node)) in POOL_CLASSES:
                out.append((node.lineno, f"{name}(...)"))
    return out


def _public_defs(tree: ast.AST) -> list[tuple[list[str], ast.AST]]:
    """Module-level public defs and the public defs of their class bodies."""
    out: list[tuple[list[str], ast.AST]] = []
    for node in getattr(tree, "body", ()):
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            out.append(([node.name], node))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    ([node.name, sub.name], sub)
                    for sub in node.body
                    if isinstance(sub, _DEFS) and not sub.name.startswith("_")
                )
    return out


def find_unreferenced(
    def_files: list[tuple[Path, str]],
    use_files: list[Path],
    keep: Container[str] = (),
) -> list[tuple[Path, int, str]]:
    """Public defs no live use references outside the def itself.

    ``def_files`` pairs each defining file with its dotted module name.
    A use inside a def this returns is dead unless that def is in
    ``keep``, so the scan repeats until no more defs fall.  Returns
    (path, line, qualified name) triples, ``keep`` entries among them.
    """
    defs: list[tuple[Path, int, str, str]] = []
    spans: dict[Path, list[tuple[int, int, int]]] = {}
    for path, module in def_files:
        tree = _parse(path)
        if isinstance(tree, list):
            continue
        for names, node in _public_defs(tree):
            first, last = node.lineno, node.end_lineno or node.lineno
            spans.setdefault(path, []).append((first, last, len(defs)))
            defs.append((path, first, ".".join([module, *names]), names[-1]))
    # every use of a name, as the indices of the defs it sits inside
    uses: dict[str, list[frozenset[int]]] = {}
    for path in use_files:
        tree = _parse(path)
        if isinstance(tree, list):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            within = frozenset(
                i for first, last, i in spans.get(path, ()) if first <= node.lineno <= last
            )
            uses.setdefault(name, []).append(within)
    dead: set[int] = set()
    while True:
        shields = {i for i in dead if defs[i][2] not in keep}
        now = {
            i
            for i, (_, _, _, name) in enumerate(defs)
            if not any(
                i not in within and shields.isdisjoint(within)
                for within in uses.get(name, ())
            )
        }
        if now == dead:
            return [(defs[i][0], defs[i][1], defs[i][2]) for i in sorted(dead)]
        dead = now


def _module_name(path: Path, base: Path) -> str:
    parts = path.relative_to(base).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _rel(path: Path, repo_root: Path) -> Path:
    return path.relative_to(repo_root) if path.is_relative_to(repo_root) else path


def dead_api_violations(repo_root: Path, roots: list[Path] | None) -> list[str]:
    """The no-uncalled-public-surface rule, as printable violations.

    ``roots=None`` lints the repo against :data:`DELIBERATE_API`; explicit
    roots take definitions and uses from those roots, with no allowlist.
    """
    if roots is None:
        src = repo_root / "src"
        def_files = [
            (p, _module_name(p, src)) for p in sorted((src / "repro").rglob("*.py"))
        ]
        use_files = [
            p for r in API_USE_ROOTS for p in sorted((repo_root / r).rglob("*.py"))
        ]
        allow = DELIBERATE_API
    else:
        def_files = [
            (p, _module_name(p, r)) for r in roots for p in sorted(r.rglob("*.py"))
        ]
        use_files = [p for p, _ in def_files]
        allow = {}
    found = find_unreferenced(def_files, use_files, allow)
    out = [
        f"{_rel(path, repo_root)}:{line}: {name} is defined but nothing "
        "outside tests uses it — delete it, or list it in DELIBERATE_API"
        for path, line, name in found
        if name not in allow
    ]
    flagged = {name for _, _, name in found}
    out.extend(
        f"{_rel(Path(__file__), repo_root)}: DELIBERATE_API entry {name} "
        "is gone or used again — drop it from the list"
        for name in allow
        if name not in flagged
    )
    return out


def main(argv: list[str]) -> int:
    repo_root = Path(__file__).resolve().parent.parent
    roots = [Path(a) for a in argv] if argv else [
        repo_root / r for r in DEFAULT_ROOTS
    ]
    rules = (
        (
            SCHEME_EXEMPT_PARTS,
            find_violations,
            lambda what: f"direct {what}(...) construction — resolve it "
            "through repro.networks.registry.build_network",
        ),
        (
            POOL_EXEMPT_PARTS,
            find_pool_violations,
            lambda what: f"{what} — all process fan-out goes through "
            "repro.exec.map_cells",
        ),
        (
            TOPO_EXEMPT_PARTS,
            find_topo_violations,
            lambda what: f"direct {what}(...) topology construction — pick "
            "a composite scheme (mesh-tdm/fattree-tdm) and pass topology "
            "knobs through RunSpec.options",
        ),
    )
    violations: list[str] = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for exempt_parts, finder, message in rules:
                if _exempt(path, repo_root, exempt_parts):
                    continue
                for lineno, what in finder(path):
                    violations.append(
                        f"{_rel(path, repo_root)}:{lineno}: {message(what)}"
                    )
    violations.extend(dead_api_violations(repo_root, roots if argv else None))
    if violations:
        print("\n".join(violations))
        print(f"\n{len(violations)} boundary violation(s) found")
        return 1
    print("construction check passed: scheme construction goes through "
          "the registry, process fan-out through repro.exec, and every "
          "public name has a caller")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
