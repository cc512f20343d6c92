"""RL009 — resources created before ``os.fork`` must not leak into the child.

``fork(2)`` clones exactly one thread.  Every lock some *other* thread
held at that instant is copied in the locked state with nobody left to
release it; threads and pools simply do not exist in the child; sockets
and mmaps are shared file descriptions with surprising aliasing.  The
pre-forked serving fleet (``repro.serve.multiproc``) makes this a
first-class hazard for this repository, so the rule checks two things:

1. **Module-level locks in fork-reachable modules.**  Any module
   import-reachable from a module that calls ``os.fork`` and that binds
   a ``threading.Lock``-family object at module scope must also call
   ``os.register_at_fork`` (anywhere in the module) to reinitialize the
   lock in the child.  Instance locks are exempt here — workers build
   their own instances — but import-time singletons (log sinks, global
   registries) exist before the fork by construction.

2. **Pre-fork instance state touched on the child path.**  Inside a
   class that forks, attributes assigned a lock / thread / pool /
   socket / mmap are *pre-fork resources*.  A function reachable from
   the ``if pid == 0:`` child branch that reads such an attribute is
   flagged, unless it re-creates the attribute itself or carries an
   ``os.getpid()`` guard (the pid-recheck idiom: rebuild a lazily
   created pool when the current pid differs from the one that built
   it).  Deliberate sharing — the
   pre-bound listen socket every worker accepts on — is exactly what an
   inline suppression with a reason is for.

The child path is the transitive call closure of calls made inside the
child branch, restricted to functions of the forking class (cross-class
duck typing is untrackable; see DESIGN.md section 15).
"""

from __future__ import annotations

from typing import Dict, Iterator, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.program import FunctionInfo, Program
from repro.analysis.registry import register
from repro.analysis.rules.base import Rule


@register
class ForkSafetyRule(Rule):
    rule_id = "RL009"
    summary = (
        "locks/threads/pools/sockets created before os.fork must not be "
        "reused on the child code path without reinitialization"
    )
    uses_program = True

    def check_program(self, program: Program) -> Iterator[Finding]:
        forks = program.fork_modules()
        if not forks:
            return

        reach = program.import_reach(sorted(forks))
        for relpath in sorted(reach):
            facts = program.modules[relpath]
            if not facts.module_locks or facts.registers_at_fork:
                continue
            chain = " -> ".join(reach[relpath])
            for name, (kind, line, col) in sorted(facts.module_locks.items()):
                yield self.finding_at(
                    relpath,
                    line,
                    col,
                    "module-level %s '%s' exists before os.fork "
                    "(import chain %s); a copy held by another thread at "
                    "fork time stays locked forever in the child — "
                    "reinitialize it via os.register_at_fork(after_in_child=...)"
                    % (kind, name, chain),
                )

        for finding in self._child_path_findings(program):
            yield finding

    # ------------------------------------------------------------------

    def _child_path_findings(self, program: Program) -> Iterator[Finding]:
        for qual in sorted(program.functions):
            forker = program.functions[qual]
            if not forker.fork_lines or forker.class_name is None:
                continue
            cls = program.classes.get(
                "%s::%s" % (forker.relpath, forker.class_name)
            )
            if cls is None:
                continue
            child_funcs = self._child_closure(program, forker)
            if not child_funcs:
                continue
            # attributes the child path re-assigns before use are its own
            recreated: Set[str] = set()
            for child_qual in child_funcs:
                if child_qual == forker.qualname:
                    continue  # parent-side writes in the forker don't count
                recreated.update(
                    program.functions[child_qual].self_attr_writes
                )
            for child_qual, chain in sorted(child_funcs.items()):
                info = program.functions[child_qual]
                if info.has_getpid_guard:
                    continue
                reads = (
                    info.child_attr_reads
                    if child_qual == forker.qualname
                    else info.self_attr_reads
                )
                for attr in sorted(reads):
                    if attr in recreated:
                        continue
                    resource = cls.resource_attrs.get(attr)
                    if resource is None:
                        continue
                    kind, _ = resource
                    line, col = reads[attr]
                    yield self.finding_at(
                        info.relpath,
                        line,
                        col,
                        "%s.%s (%s, created pre-fork) is used on the "
                        "fork-child path %s; after fork it may be locked, "
                        "dead, or shared with the parent — recreate it in "
                        "the child or guard with an os.getpid() check"
                        % (
                            forker.class_name,
                            attr,
                            kind,
                            " -> ".join(chain),
                        ),
                    )

    def _child_closure(
        self, program: Program, forker: FunctionInfo
    ) -> Dict[str, Tuple[str, ...]]:
        """Functions reachable from the child branch -> call chain."""
        resolved = program.resolved_calls()
        class_prefix = "%s::%s." % (forker.relpath, forker.class_name)
        out: Dict[str, Tuple[str, ...]] = {
            forker.qualname: (forker.qualname,)
        }
        stack = []
        for call in forker.calls:
            if not call.in_fork_child:
                continue
            for callee in program.resolve(forker, call):
                if callee.startswith(class_prefix):
                    stack.append((callee, (forker.qualname, callee)))
        while stack:
            qual, chain = stack.pop()
            if qual in out:
                continue
            out[qual] = chain
            for callee in resolved.get(qual, ()):
                if callee.startswith(class_prefix) and callee not in out:
                    stack.append((callee, chain + (callee,)))
        if len(out) == 1:  # nothing actually runs on the child path
            return {}
        return out
