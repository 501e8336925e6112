"""The RPR lint rules.

Each rule is a function ``(tree, source) -> [(line, message)]``
registered with :func:`repro.analyze.lint.register_rule`.  The rules
are name/shape heuristics (no type inference); see ``docs/analyze.md``
for the discipline each one enforces and its known blind spots.
"""

from __future__ import annotations

import ast
import re

from repro.analyze.lint import register_rule

# --------------------------------------------------------------------- #
# Shared AST helpers
# --------------------------------------------------------------------- #


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an expression (``a.b.c`` -> "a.b.c")."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _functions(tree: ast.Module):
    """Every function/lambda in the module, with its parent function."""
    out = []

    def walk(node: ast.AST, parent) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                out.append((child, node if isinstance(node, _FUNCS) else parent))
                walk(child, child)
            else:
                walk(child, parent)

    _FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    walk(tree, None)
    return out


def _own_statements(fn: ast.AST):
    """Walk a function's body, not descending into nested functions."""
    stack = list(getattr(fn, "body", []) if not isinstance(fn, ast.Lambda) else [fn.body])
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _calls(nodes) -> list[ast.Call]:
    return [n for n in nodes if isinstance(n, ast.Call)]


def _loaded_names(fn: ast.AST) -> set[str]:
    """Names read anywhere in ``fn`` (including nested scopes)."""
    return {
        n.id
        for n in ast.walk(fn)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _bound_names(fn: ast.AST) -> set[str]:
    """Parameters and names assigned within ``fn`` itself."""
    bound: set[str] = set()
    args = fn.args
    for a in list(args.args) + list(args.posonlyargs) + list(args.kwonlyargs):
        bound.add(a.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound.add(node.name)
    return bound


# --------------------------------------------------------------------- #
# RPR001 — shared-queue mutation outside a lock scope
# --------------------------------------------------------------------- #

_SHARED_FIELD = "_shared"
_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "popleft"}


def _is_shared_attr(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == _SHARED_FIELD


def _shared_mutations(fn: ast.AST) -> list[int]:
    """Lines in ``fn`` (own scope only) that mutate a ``_shared`` field."""
    lines = []
    for node in _own_statements(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if _is_shared_attr(t):
                    lines.append(node.lineno)
                elif isinstance(t, ast.Subscript) and _is_shared_attr(t.value):
                    lines.append(node.lineno)
        elif isinstance(node, ast.Delete):
            for t in node.targets:
                if isinstance(t, ast.Subscript) and _is_shared_attr(t.value):
                    lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            f = node.func
            if (
                isinstance(f, ast.Attribute)
                and f.attr in _MUTATORS
                and _is_shared_attr(f.value)
            ):
                lines.append(node.lineno)
    return lines


@register_rule("RPR001", "shared-queue field mutated outside a lock scope")
def rpr001(tree: ast.Module, source: str):
    # Names passed as arguments to any call: a nested def handed to a
    # runner (armci apply closures, _owner_split_update move functions)
    # executes at that runner's serialization point.
    arg_names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for a in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(a, ast.Name):
                    arg_names.add(a.id)
    findings = []
    for fn, _parent in _functions(tree):
        name = getattr(fn, "name", "<lambda>")
        if name == "__init__":
            continue  # construction precedes sharing
        if name in arg_names or isinstance(fn, ast.Lambda):
            continue  # closure handed to a serializing runner
        muts = _shared_mutations(fn)
        if not muts:
            continue
        acquires = [
            c.lineno
            for c in _calls(_own_statements(fn))
            if isinstance(c.func, ast.Attribute)
            and c.func.attr in ("acquire", "co_acquire")
        ]
        for line in muts:
            if not any(a <= line for a in acquires):
                findings.append(
                    (
                        line,
                        f"`{name}` mutates a `_shared` queue field with no "
                        "preceding lock acquire in scope",
                    )
                )
    return findings


# --------------------------------------------------------------------- #
# RPR002 — wall-clock time / unseeded randomness
# --------------------------------------------------------------------- #

_WALL_CLOCK = {
    "time.time",
    "time.perf_counter",
    "time.monotonic",
    "time.process_time",
}
_DATETIME_NOW = {"datetime.now", "datetime.datetime.now", "datetime.utcnow",
                 "datetime.datetime.utcnow", "date.today", "datetime.date.today"}


@register_rule("RPR002", "wall-clock time or unseeded randomness")
def rpr002(tree: ast.Module, source: str):
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name in _WALL_CLOCK:
            findings.append(
                (node.lineno, f"`{name}()` reads the wall clock; simulated "
                 "code must use virtual time (`proc.now`)")
            )
        elif name in _DATETIME_NOW and not node.args and not node.keywords:
            findings.append(
                (node.lineno, f"`{name}()` reads the wall clock; simulated "
                 "code must use virtual time (`proc.now`)")
            )
        elif name.startswith("random.") and name != "random.Random":
            findings.append(
                (node.lineno, f"`{name}()` draws from the global unseeded RNG; "
                 "use the engine-seeded `proc.rng`")
            )
    return findings


# --------------------------------------------------------------------- #
# RPR003 — poll loop without an engine yield
# --------------------------------------------------------------------- #

_POLLY = re.compile(r"(done|dirty|ready|pending|empty|flag|mailbox|poll|busy)", re.I)

#: Calls known *not* to advance virtual time: cheap probes and builtins.
#: Any call outside this set is presumed to yield (helpers like a
#: scheduler's ``_service`` advance time internally), so the rule only
#: fires on loops that provably spin without the engine ever running.
_KNOWN_NONYIELDING = {
    "mailbox_empty", "locked", "size", "shared_size", "private_size",
    "len", "min", "max", "abs", "sum", "range", "int", "float", "bool",
    "sorted", "list", "tuple", "set", "dict", "enumerate", "zip",
    "isinstance", "print",
}


def _last_attr(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


@register_rule("RPR003", "poll loop without an engine yield")
def rpr003(tree: ast.Module, source: str):
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.While):
            continue
        # Poll loops watch *state* — an attribute (`self.done`) or a
        # probe call (`mailbox_empty()`); a bare local name is a
        # worklist, not a poll target.
        cond_state = {
            n.attr for n in ast.walk(node.test) if isinstance(n, ast.Attribute)
        } | {
            _last_attr(c.func) for c in ast.walk(node.test) if isinstance(c, ast.Call)
        }
        if not any(_POLLY.search(n) for n in cond_state if n):
            continue
        all_calls = {
            _last_attr(c.func)
            for sub in [node.test, *node.body]
            for c in ast.walk(sub)
            if isinstance(c, ast.Call)
        }
        if all_calls - _KNOWN_NONYIELDING:
            continue  # some call may yield; give it the benefit of the doubt
        findings.append(
            (
                node.lineno,
                "poll loop never yields to the engine (no sync/park/sleep/"
                "advance in body): virtual time cannot progress",
            )
        )
    return findings


# --------------------------------------------------------------------- #
# RPR004 — task body capturing process-local state
# --------------------------------------------------------------------- #

_PROCESS_LOCAL = {"proc", "engine"}


@register_rule("RPR004", "task body captures process-local state (use a CLO)")
def rpr004(tree: ast.Module, source: str):
    # Map nested function name -> node, per enclosing scope is overkill
    # for a heuristic: collect all defs by name.
    defs: dict[str, ast.AST] = {}
    for fn, _parent in _functions(tree):
        name = getattr(fn, "name", None)
        if name is not None:
            defs[name] = fn
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if not (isinstance(node.func, ast.Attribute) and node.func.attr == "register"):
            continue
        for arg in node.args:
            target: ast.AST | None = None
            if isinstance(arg, ast.Lambda):
                target = arg
            elif isinstance(arg, ast.Name) and arg.id in defs:
                target = defs[arg.id]
            if target is None:
                continue
            captured = (_loaded_names(target) - _bound_names(target)) & _PROCESS_LOCAL
            if captured:
                findings.append(
                    (
                        node.lineno,
                        f"task body captures {sorted(captured)} from the "
                        "registering rank; task bodies run on the stealing "
                        "rank — reach per-rank state through a CLO "
                        "(`tc.register_clo` / `tc.clo`) or `tc.proc`",
                    )
                )
    return findings


# --------------------------------------------------------------------- #
# RPR005 — flag-carrying put not preceded by a fence
# --------------------------------------------------------------------- #

_FLAG_HINT = re.compile(r"(dirty|done|mark|flag)", re.I)

# The repro.obs recording API is a pure observer (it only reads proc.now
# and appends metadata) — its names collide with the flag hint
# (edge_mark, instant) but never store protocol state.
_OBSERVER_CALLS = re.compile(r"^(edge_\w+|causal_edge|span|instant|observe)$")


def _carries_flag_store(arg: ast.AST, defs: dict[str, ast.AST]) -> bool:
    """Does a put's apply argument store to a termination/steal flag?"""
    target: ast.AST | None = None
    if isinstance(arg, ast.Lambda):
        target = arg
    elif isinstance(arg, ast.Name) and arg.id in defs:
        target = defs[arg.id]
    if target is None:
        return False
    for node in ast.walk(target):
        if isinstance(node, ast.Call):
            name = _last_attr(node.func) or ""
            if _OBSERVER_CALLS.match(name):
                continue
            if _FLAG_HINT.search(name):
                return True
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Attribute) and _FLAG_HINT.search(t.attr):
                    return True
    return False


@register_rule("RPR005", "flag store not preceded by a fence")
def rpr005(tree: ast.Module, source: str):
    defs: dict[str, ast.AST] = {}
    for fn, _parent in _functions(tree):
        name = getattr(fn, "name", None)
        if name is not None:
            defs[name] = fn
    findings = []
    for fn, _parent in _functions(tree):
        fences = [
            c.lineno
            for c in _calls(_own_statements(fn))
            if isinstance(c.func, ast.Attribute) and c.func.attr == "fence"
        ]
        for call in _calls(_own_statements(fn)):
            if not (isinstance(call.func, ast.Attribute) and call.func.attr == "put"):
                continue
            if not any(_carries_flag_store(a, defs) for a in call.args):
                continue
            if not any(f <= call.lineno for f in fences):
                findings.append(
                    (
                        call.lineno,
                        "one-sided put stores a termination/steal flag with no "
                        "preceding fence to the target: the flag can overtake "
                        "earlier transfers (§5.3 ordering)",
                    )
                )
    return findings


# --------------------------------------------------------------------- #
# RPR006 — inconsistent lock-acquisition order
# --------------------------------------------------------------------- #


def _lock_receiver(call: ast.Call) -> str:
    """Normalized name of the lock a ``.acquire()``/``.release()`` targets.

    ``self.`` is stripped so the same field seen from two methods unifies;
    distinct *variables* (``victim.lock`` vs ``own.lock``) stay distinct,
    which is exactly the distinction a static order check can honour.
    """
    name = _dotted(call.func.value)
    if name.startswith("self."):
        name = name[len("self."):]
    return name


@register_rule("RPR006", "inconsistent lock-acquisition order")
def rpr006(tree: ast.Module, source: str):
    # Per-function summaries: simulate a held-locks stack over the calls
    # of each scope in source order, recording `outer -> inner` whenever
    # a lock is acquired while another is held.  A pair of distinct
    # names seen nested in *both* orders anywhere in the module is a
    # lock-order inversion: two ranks running those paths concurrently
    # can each hold one lock and wait for the other.
    edges: dict[tuple[str, str], int] = {}
    for fn, _parent in _functions(tree):
        calls = [
            c
            for c in _calls(_own_statements(fn))
            if isinstance(c.func, ast.Attribute)
            and c.func.attr in ("acquire", "release", "co_acquire", "co_release")
        ]
        calls.sort(key=lambda c: (c.lineno, c.col_offset))
        held: list[str] = []
        for c in calls:
            name = _lock_receiver(c)
            if not name:
                continue
            if c.func.attr in ("acquire", "co_acquire"):
                for outer in held:
                    if outer != name:
                        edges.setdefault((outer, name), c.lineno)
                held.append(name)
            else:
                for i in range(len(held) - 1, -1, -1):
                    if held[i] == name:
                        del held[i]
                        break
    findings = []
    for (a, b), line in sorted(edges.items(), key=lambda kv: kv[1]):
        if a < b and (b, a) in edges:
            other = edges[(b, a)]
            findings.append(
                (
                    max(line, other),
                    f"locks `{a}` and `{b}` are acquired in both nestings "
                    f"(`{a}` then `{b}` at line {min(line, other)}, reversed "
                    f"at line {max(line, other)}): inconsistent acquisition "
                    "order can deadlock",
                )
            )
    return findings


# --------------------------------------------------------------------- #
# RPR007 — discarded coroutine call
# --------------------------------------------------------------------- #

_MPI_COROUTINES = {"send", "recv", "iprobe", "barrier"}
#: The generator calls of the paper-style facade ``repro.core.capi``.
_CAPI_COROUTINES = {"tc_create", "tc_add", "tc_process", "tc_reset", "tc_destroy"}


def _is_coroutine_call(node: ast.AST) -> bool:
    """A call to a ``co_*`` form, a ``repro.core.capi`` collective, or a
    coroutine method of ``...mpi``.

    Blind spot: a receiver that is itself a call
    (``Mpi.attach(engine).send(...)``) has no name to match.
    """
    if not isinstance(node, ast.Call):
        return False
    name = _last_attr(node.func)
    if name.startswith("co_") or name in _CAPI_COROUTINES:
        return True
    return (
        name in _MPI_COROUTINES
        and isinstance(node.func, ast.Attribute)
        and _dotted(node.func.value).rpartition(".")[2] == "mpi"
    )


@register_rule("RPR007", "coroutine call discarded or only truth-tested")
def rpr007(tree: ast.Module, source: str):
    # Calling a generator function runs none of its body and Python does
    # not warn: a dropped call is a silent no-op, and the generator
    # object it returns is always true.
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr):
            dropped = [node.value]
        elif isinstance(node, (ast.If, ast.While, ast.Assert, ast.IfExp)):
            dropped = [node.test]
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            dropped = [node.operand]
        elif isinstance(node, ast.BoolOp):
            dropped = node.values
        else:
            continue
        for call in dropped:
            if _is_coroutine_call(call):
                findings.append(
                    (
                        call.lineno,
                        f"`{_last_attr(call.func)}(...)` returns a coroutine "
                        "that is never run: without `yield from` the call "
                        "does nothing and is always true",
                    )
                )
    return findings
