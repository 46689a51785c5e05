"""One op per workload, and the check of its outcome against the oracle.

An op calls sit's public entry points in the order the `sit` command does:
`files` and `indexed` ops do what `sit translate FILE` does (parse, resolve,
check with coverage, then translate every data declaration), and `eval` ops
do what `sit eval PRELUDE -e EXPR` does after the prelude is loaded (parse
and resolve the expression, normalize it, print it). Every call goes
through a module attribute, so the tracer's rebinding sees it.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from types import ModuleType

from workloads import Accept, Op, Reject, Value

OK, WRONG, ERROR = "ok", "wrong", "error"


@dataclass(frozen=True)
class Result:
    seconds: float
    status: str  # OK: agrees with the oracle; WRONG: a different answer; ERROR: raised
    detail: str
    firings: int  # clause firings: Fuel.used summed over the op's Fuel objects


class Pipeline:
    """Runs ops of one workload against one imported copy of sit."""

    def __init__(self, sit: ModuleType, prelude: str | None = None) -> None:
        self.sit = sit
        self.fuels: list = []
        self._count_fuel()
        self.prelude = self.resolver = None
        if prelude is not None:
            self.prelude, self.resolver = self._load(prelude, "prelude.sit")

    def _count_fuel(self) -> None:
        # Every Fuel sit creates is also kept in self.fuels, so an op's clause
        # firings can be summed after it ends. Fuel stays sit's own class.
        evaluator = self.sit.evaluator
        real, fuels = evaluator.Fuel, self.fuels

        def counted_fuel(*args, **kwargs):
            fuel = real(*args, **kwargs)
            fuels.append(fuel)
            return fuel

        self.new_fuel = counted_fuel
        for module in (evaluator, self.sit.typecheck, self.sit.coverage):
            module.Fuel = counted_fuel

    def _load(self, text: str, name: str):
        sit = self.sit
        surface = sit.frontend.parse_file(text, name)
        resolver = sit.frontend.Resolver()
        decls = resolver.run(surface)
        sig = sit.typecheck.TypeChecker().check_signature(decls, coverage=True)
        return sig, resolver

    def _translate(self, op: Op) -> str:
        sig, _ = self._load(op.text, f"op{op.index}.sit")
        translate, data = self.sit.translate, self.sit.core.DataDecl
        return "\n".join(
            translate.emit_general(translate.to_general(sig, decl))
            for decl in sig.decls
            if isinstance(decl, data)
        )

    def _eval(self, op: Op) -> str:
        sit = self.sit
        term = self.resolver.resolve_expression(sit.frontend.parse_expression(op.text))
        result = sit.evaluator.normalize(self.prelude, term, self.new_fuel())
        return sit.core.pretty(result)

    def run(self, op: Op) -> Result:
        call = self._eval if isinstance(op.expect, Value) else self._translate
        self.fuels.clear()
        start = time.perf_counter()
        try:
            got = call(op)
        except self.sit.diagnostics.SitError as err:
            got = err
        except Exception as exc:  # any other exception is this op's failure
            seconds = time.perf_counter() - start
            return Result(seconds, ERROR, f"{type(exc).__name__}: {exc}"[:300], 0)
        seconds = time.perf_counter() - start
        firings = sum(fuel.used for fuel in self.fuels)
        if isinstance(got, self.sit.diagnostics.SitError) and isinstance(op.expect, Value):
            return Result(seconds, ERROR, f"{type(got).__name__}: {got.render()}", 0)
        problem = judge(op.expect, got)
        return Result(seconds, OK if problem is None else WRONG, problem or "", firings)


def known_failure(op: Op, res: Result) -> bool:
    """The one failure a correct run may have: RecursionError on an op whose
    input is past today's recursion depth."""
    return res.status == ERROR and op.past_depth and res.detail.startswith("RecursionError")


def judge(expect, got) -> str | None:
    """None when `got` is the oracle's answer, else what differs.

    `got` is the printed text of a successful op or the diagnostic it raised.
    """
    if isinstance(expect, Reject):
        if isinstance(got, str):
            return f"accepted; expected error[{expect.code}]"
        line = got.span.start_line if got.span else None
        if got.code != expect.code or line is None or not expect.first <= line <= expect.last:
            return (
                f"{got.render()}; expected error[{expect.code}] "
                f"in lines {expect.first}-{expect.last}"
            )
        return None
    if not isinstance(got, str):
        return f"rejected: {got.render()}"
    want = expect.gadt if isinstance(expect, Accept) else expect.text
    if got == want:
        return None
    return f"printed {_clip(got)!r}; expected {_clip(want)!r}"


def _clip(s: str) -> str:
    return s if len(s) <= 80 else s[:77] + "..."
