"""The concretizer: turn an abstract spec into a fully-pinned build DAG.

This is the piece of Spack the paper's reproducibility story leans on
hardest: "Spack's concretization mechanism records these steps so that they
can be inspected later ('archaeological reproducibility')" (Section 2.2).
Table 3 of the paper is nothing but concretizer output -- the gcc, Python
and MPI versions picked for ``hpgmg%gcc`` on four systems.

Algorithm (a deterministic, greedy fixpoint -- adequate for recipe DAGs of
this size and, unlike Spack's ASP solver, fully explainable):

1. normalize the root (attach recipe defaults: preferred version, default
   variants, architecture facts from the environment),
2. expand dependencies breadth-first, folding every dependent's constraint
   into a single node per package name (unification),
3. resolve virtual dependencies (``mpi``) via environment preferences,
   externals, then any provider,
4. prefer environment externals over source builds,
5. pin versions (highest admitted), compilers (environment resolution),
   variants (declared defaults), and inherit the compiler down the DAG,
6. check every ``conflicts`` directive against the final configuration,
7. topologically order (:func:`topological_sort`) and seal the spec.

Concretization is *idempotent* (concretizing a concrete spec returns an
equal spec) and *deterministic*; both properties are enforced by the test
suite with hypothesis.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.pkgmgr.environment import Environment
from repro.pkgmgr.memo import ConcretizationCache, MemoizedFailure
from repro.pkgmgr.package import PackageBase
from repro.pkgmgr.repository import RepoPath, UnknownPackageError, default_repo_path
from repro.pkgmgr.spec import CompilerSpec, Spec
from repro.pkgmgr.variant import VariantMap, VariantError
from repro.pkgmgr.version import VersionList

__all__ = ["Concretizer", "ConcretizationError", "DependencyCycle",
           "concretize", "topological_sort"]


class ConcretizationError(Exception):
    """Raised when no concrete configuration satisfies all constraints."""


class DependencyCycle(ValueError):
    """A directed cycle, as its edges ``[(a, b), (b, c), (c, a)]``."""

    def __init__(self, cycle: List[Tuple[Hashable, Hashable]]):
        super().__init__(f"dependency cycle: {cycle}")
        self.cycle = cycle


def topological_sort(nodes: Iterable[Hashable],
                     edges: Iterable[Tuple[Hashable, Hashable]],
                     reverse: bool = False) -> List[Hashable]:
    """Order *nodes* so each edge ``(u, v)`` puts ``u`` first (``v`` with
    *reverse*); install order, and so stored build logs, follow it.

    Kahn's algorithm by generations: the sources in node order, then the
    children of each placed node in edge order as their in-degree reaches
    0.  A node first named by an edge joins the node order there, and a
    repeated edge counts once.  *reverse* turns the edges round node by
    node in node order (DESIGN.md section 12.4).  A cycle raises
    :class:`DependencyCycle` naming the first one a depth-first walk
    meets, starting from each node in order.
    """
    succ: Dict[Hashable, Dict[Hashable, None]] = {n: {} for n in nodes}
    for u, v in edges:
        succ.setdefault(u, {})[v] = None
        succ.setdefault(v, {})
    graph = succ
    if reverse:
        graph = {n: {} for n in succ}
        for u in succ:
            for v in succ[u]:
                graph[v][u] = None
    indegree = dict.fromkeys(graph, 0)
    for children in graph.values():
        for v in children:
            indegree[v] += 1
    order = [n for n, d in indegree.items() if d == 0]
    for node in order:  # appended children form the next generation
        for child in graph[node]:
            indegree[child] -= 1
            if indegree[child] == 0:
                order.append(child)
    if len(order) == len(graph):
        return order
    done: set = set()
    for start in (n for n in succ if n not in done):
        path, walks = [start], [iter(succ[start])]
        while walks:
            child = next((c for c in walks[-1] if c not in done), None)
            if child is None:
                done.add(path.pop())
                walks.pop()
            elif child in path:
                loop = path[path.index(child):] + [child]
                raise DependencyCycle(list(zip(loop, loop[1:])))
            else:
                path.append(child)
                walks.append(iter(succ[child]))
    raise AssertionError("unreachable: an unsortable graph has a cycle")


#: Architecture facts the environment injects into root specs, usable in
#: recipe ``conflicts(... when='target=aarch64')`` clauses.
ARCH_KEYS = ("target", "device", "vendor")


class Concretizer:
    """Concretizes specs against a recipe repository and an environment."""

    def __init__(
        self,
        repo: Optional[RepoPath] = None,
        env: Optional[Environment] = None,
        cache: Optional[ConcretizationCache] = None,
    ):
        self.repo = repo or default_repo_path()
        self.env = env or Environment.basic("generic")
        #: optional shared memo table (see :mod:`repro.pkgmgr.memo`)
        self.cache = cache
        #: after :meth:`concretize`: True (served from cache), False
        #: (solved and stored), or None (no cache attached / spec was
        #: already concrete).  Consumed by the pipeline for provenance.
        self.last_cache_hit: Optional[bool] = None

    # ------------------------------------------------------------------ api --
    def concretize(self, spec: Spec | str) -> Spec:
        """Return a new, concrete spec satisfying *spec* in this environment."""
        root = Spec(spec) if isinstance(spec, str) else spec.copy()
        self.last_cache_hit = None
        if root.name is None:
            raise ConcretizationError(f"cannot concretize anonymous spec: {root}")
        if root.concrete:
            return root.copy()

        key = None
        if self.cache is not None:
            key = self.cache.key_for(root, self.env, self.repo)
            memoized = self.cache.lookup(key)
            if memoized is not None:
                # the *solve* is reused; the lockfile still records the
                # concretization (Principle 4) and the installer still
                # rebuilds the root (Principle 3)
                self.last_cache_hit = True
                if isinstance(memoized, MemoizedFailure):
                    # the identical problem already proved unsatisfiable
                    raise ConcretizationError(memoized.message)
                self.env.record(memoized)
                return memoized
            self.last_cache_hit = False

        try:
            nodes, edges = self._expand(root)
            self._pin_all(nodes, root.name)
            self._propagate_compiler(nodes, edges, root.name)
            self._check_conflicts(nodes)
            concrete = self._assemble(nodes, edges, root.name)
        except ConcretizationError as exc:
            # unsatisfiability is as deterministic as a solution: memoize
            # it so a campaign pays one miss per unique spec x system even
            # for its impossible (spec, platform) combinations
            if self.cache is not None and key is not None:
                self.cache.store_failure(key, str(exc))
            raise
        concrete.mark_concrete()
        self.env.record(concrete)
        if self.cache is not None and key is not None:
            self.cache.store(key, concrete)
        return concrete

    # ----------------------------------------------------------- expansion --
    def _recipe(self, name: str) -> type[PackageBase]:
        try:
            return self.repo.get(name)
        except UnknownPackageError:
            raise ConcretizationError(
                f"unknown package {name!r}; add a recipe to a repository "
                f"(paper Section 2.2: custom repositories)"
            ) from None

    def _providers_of(self, virtual: str) -> List[str]:
        out = []
        for name in self.repo.all_package_names():
            recipe = self.repo.get(name)
            if virtual in getattr(recipe, "provides_decl", ()):
                out.append(name)
        return sorted(out)

    def _resolve_virtual(
        self,
        virtual: str,
        constraint: Spec,
        hints: Tuple[str, ...] = (),
    ) -> Spec:
        """Pick a provider for a virtual dep.

        Priority: an explicitly requested provider (``^openmpi`` on the
        command line) > environment preference > an external provider >
        first provider alphabetically.
        """
        providers = self._providers_of(virtual)
        if not providers:
            raise ConcretizationError(f"no provider for virtual package {virtual!r}")
        hinted = [h for h in hints if h in providers]
        if hinted:
            chosen = Spec(hinted[0])
            resolved = chosen.copy()
            carried = constraint.copy()
            carried.name = resolved.name
            return resolved.constrain(carried)
        # environment preference ('mpi' -> 'cray-mpich@8.1.23')
        pref = self.env.preferences.get(virtual)
        if pref is not None:
            pref_spec = Spec(pref)
            if pref_spec.name not in providers:
                raise ConcretizationError(
                    f"environment prefers {pref!r} for {virtual!r}, "
                    f"but it does not provide it"
                )
            chosen = pref_spec
        else:
            # an external provider beats building one from source
            ext_names = [
                e.spec.name
                for e in self.env.externals
                if e.spec.name in providers
            ]
            chosen = Spec(ext_names[0]) if ext_names else Spec(providers[0])
        resolved = chosen.copy()
        # carry over the virtual constraint's version bounds etc.
        carried = constraint.copy()
        carried.name = resolved.name
        return resolved.constrain(carried)

    def _expand(self, root: Spec) -> Tuple[Dict[str, Spec], List[Tuple[str, str]]]:
        """BFS dependency expansion with constraint unification.

        Returns the per-name unified constraint nodes and the dependency
        edges discovered from recipes and explicit ``^`` clauses.
        """
        nodes: Dict[str, Spec] = {}
        edges: List[Tuple[str, str]] = []

        # explicit ^deps on the CLI constrain, and also force, those packages
        explicit: Dict[str, Spec] = {}
        for dep_name, dep in root.dependencies.items():
            explicit[dep_name] = dep.copy()
        bare_root = root.copy(deps=False)
        # architecture facts are attached to every node so conflicts like
        # `when='target=aarch64'` can see them anywhere in the DAG
        arch_map = VariantMap({k: v for k, v in self.env.arch.items()})
        work = [bare_root]

        guard = 0
        while work:
            guard += 1
            if guard > 10_000:  # pragma: no cover - cycle safety net
                raise ConcretizationError("dependency expansion did not converge")
            node = work.pop(0)
            assert node.name is not None
            name = node.name
            if name in nodes:
                try:
                    nodes[name] = nodes[name].constrain(node)
                except Exception as exc:
                    raise ConcretizationError(
                        f"conflicting requirements on {name}: {exc}"
                    ) from exc
            else:
                nodes[name] = node.copy(deps=False)
                nodes[name].variants = nodes[name].variants.merge(arch_map)

            recipe = self._recipe(name)
            current = nodes[name]
            # validate explicit selections and reject unknown variants, but do
            # NOT bake defaults into the node yet: a later explicit constraint
            # (e.g. `^kokkos backend=cuda`) must not clash with a default.
            validated = {}
            for vname, value in current.variants.items():
                if vname in ARCH_KEYS:
                    validated[vname] = value
                elif vname in recipe.variants_decl:
                    validated[vname] = recipe.variants_decl[vname].validate(value)
                else:
                    raise ConcretizationError(
                        f"package {name!r} has no variant {vname!r}"
                    )
            current.variants = VariantMap(validated)

            # effective view (explicit + defaults) for `when=` conditions
            effective = current.copy(deps=False)
            eff_variants = dict(current.variants.items())
            for vname, decl in recipe.variants_decl.items():
                if vname not in eff_variants:
                    eff_variants[vname] = decl.validate(decl.default)
            effective.variants = VariantMap(eff_variants)

            for depdecl in recipe.dependencies_decl:
                if not depdecl.active(effective):
                    continue
                dep_constraint = depdecl.spec.copy()
                dep_name = dep_constraint.name
                assert dep_name is not None
                if not self.repo.exists(dep_name) and self._providers_of(dep_name):
                    resolved = self._resolve_virtual(
                        dep_name, dep_constraint, hints=tuple(explicit)
                    )
                    dep_name = resolved.name
                    dep_constraint = resolved
                if (name, dep_name) not in edges:
                    edges.append((name, dep_name))
                work.append(dep_constraint)

            # fold in explicit ^deps that belong to this package
            if name in explicit:
                extra = explicit.pop(name)
                extra_flat = extra.copy(deps=False)
                work.append(extra_flat)

        # any explicit deps never reached become direct root edges (Spack
        # attaches unconnected ^specs to the root)
        for dep_name, dep in explicit.items():
            if not self.repo.exists(dep_name) and self._providers_of(dep_name):
                dep = self._resolve_virtual(dep_name, dep)
                dep_name = dep.name
            if (root.name, dep_name) not in edges:
                edges.append((root.name, dep_name))
            if dep_name in nodes:
                nodes[dep_name] = nodes[dep_name].constrain(dep.copy(deps=False))
            else:
                node = dep.copy(deps=False)
                node.variants = node.variants.merge(arch_map)
                # expand this node's own dependencies too
                sub_nodes, sub_edges = self._expand(node)
                for sn, sv in sub_nodes.items():
                    if sn in nodes:
                        nodes[sn] = nodes[sn].constrain(sv)
                    else:
                        nodes[sn] = sv
                for e in sub_edges:
                    if e not in edges:
                        edges.append(e)
        return nodes, edges

    # ------------------------------------------------------------- pinning --
    def _pin_all(self, nodes: Dict[str, Spec], root_name: str) -> None:
        for name, node in nodes.items():
            recipe = self._recipe(name)

            # now that all constraints are folded, fill in variant defaults
            filled = dict(node.variants.items())
            for vname, decl in recipe.variants_decl.items():
                if vname not in filled:
                    filled[vname] = decl.validate(decl.default)
            node.variants = VariantMap(filled)

            external = self.env.find_external(node)
            if external is not None:
                node.versions = VersionList([external.spec.version])
                node.external = True
            else:
                declared = recipe.available_versions()
                picked = node.versions.highest_of(declared)
                if picked is None:
                    raise ConcretizationError(
                        f"no declared version of {name} satisfies "
                        f"@{node.versions} (declared: "
                        f"{', '.join(str(v) for v in declared)})"
                    )
                # among equally-satisfying, prefer the recipe's preferred
                # version when it satisfies the constraint
                preferred = recipe.preferred_version()
                if node.versions.includes(preferred):
                    picked = preferred
                node.versions = VersionList([picked])
            node.namespace = self.repo.providing_repo(name)

    def _propagate_compiler(
        self,
        nodes: Dict[str, Spec],
        edges: List[Tuple[str, str]],
        root_name: str,
    ) -> None:
        root = nodes[root_name]
        if root.compiler is None:
            root.compiler = self.env.compilers.default().spec
        else:
            resolved = self.env.compilers.find(root.compiler)
            root.compiler = resolved.spec
        for name, node in nodes.items():
            if node.compiler is None:
                node.compiler = root.compiler.copy()
            else:
                node.compiler = self.env.compilers.find(node.compiler).spec

    # ------------------------------------------------------------ checking --
    def _check_conflicts(self, nodes: Dict[str, Spec]) -> None:
        for name, node in nodes.items():
            recipe = self._recipe(name)
            for decl in recipe.conflicts_decl:
                when_hits = decl.when is None or node.satisfies(decl.when)
                if when_hits and node.satisfies(decl.constraint):
                    msg = decl.msg or f"{decl.constraint} conflicts on {name}"
                    raise ConcretizationError(
                        f"conflict in {name}: {msg} "
                        f"(constraint {decl.constraint}"
                        + (f" when {decl.when}" if decl.when else "")
                        + ")"
                    )

    # ------------------------------------------------------------ assembly --
    def _assemble(
        self,
        nodes: Dict[str, Spec],
        edges: List[Tuple[str, str]],
        root_name: str,
    ) -> Spec:
        try:
            # build bottom-up so children are attached before parents
            order = topological_sort(nodes, edges, reverse=True)
        except DependencyCycle as exc:
            raise ConcretizationError(str(exc)) from None
        finished: Dict[str, Spec] = {}
        for name in order:
            spec = nodes[name].copy(deps=False)
            children = sorted({child for parent, child in edges if parent == name})
            spec.dependencies = {child: finished[child] for child in children}
            finished[name] = spec
        return finished[root_name]

    def build_order(self, concrete: Spec) -> List[Spec]:
        """Install order: dependencies before dependents."""
        by_name = {node.name: node for node in concrete.traverse()}
        # pre-order names each package but the root as an earlier one's
        # child, so the root and the edges in walk order fix node order
        edges = [(node.name, dep.name) for node in by_name.values()
                 for dep in node.dependencies.values()]
        order = topological_sort([concrete.name], edges, reverse=True)
        return [by_name[n] for n in order]


def concretize(
    spec: Spec | str,
    env: Optional[Environment] = None,
    repo: Optional[RepoPath] = None,
) -> Spec:
    """Module-level convenience wrapper over :class:`Concretizer`."""
    return Concretizer(repo=repo, env=env).concretize(spec)
