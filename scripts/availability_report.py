#!/usr/bin/env python3
"""Tabulate constructor availability across enumerated index instantiations.

For each indexed data type in a file, the availability of every constructor
is queried at every closed index tuple up to a depth bound, and the three
outcomes are counted: its first row that does not mismatch matches (available)
or is stuck, or no row applies (unavailable). Tuples with one free variable
show how often selection gets stuck.

Usage: availability_report.py [file.sit] [depth]
"""
from __future__ import annotations

import itertools
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sit.core import (
    ConCall,
    DataCall,
    DataDecl,
    Telescope,
    UNIV,
    Univ,
    Var,
    VarCall,
    subst,
)
from sit.coverage import Undecidable, available_ctors
from sit.evaluator import Fuel, index_normal_form
from sit.typecheck import load


def closed_tuples(sig, tele, depth, fuel):
    if not tele:
        yield ()
        return
    (x, ty), remaining = tele.entries[0], tele.entries[1:]
    for t in closed_terms(sig, ty, depth, fuel):
        refined = Telescope(tuple((y, subst(yty, {x: t})) for y, yty in remaining))
        for more in closed_tuples(sig, refined, depth, fuel):
            yield (t,) + more


def closed_terms(sig, ty, depth, fuel):
    if depth <= 0:
        return
    ty = index_normal_form(sig, ty, fuel)
    if isinstance(ty, Univ):
        yield UNIV  # Type : Type
        for decl in sig.decls:
            if isinstance(decl, DataDecl) and not decl.telescope:
                yield DataCall(decl.name, ())
        return
    if not isinstance(ty, DataCall):
        return
    cases = available_ctors(sig, ty.name, ty.args, fuel)
    if isinstance(cases, Undecidable):
        return
    for ctor, fields in cases.items():
        for tup in closed_tuples(sig, fields, depth - 1, fuel):
            yield ConCall(ctor, tup)


def main() -> None:
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else None
    depth = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    if path is None:
        path = Path(__file__).resolve().parent.parent / "corpus" / "fin.sit"
    sig = load(path.read_text(), str(path)).sig
    fuel = Fuel()
    for decl in sig.decls:
        if not isinstance(decl, DataDecl) or not decl.telescope:
            continue
        print(f"{decl.name} (depth <= {depth}):")
        counts: Counter = Counter()
        tuples = list(closed_tuples(sig, decl.telescope, depth, fuel))
        poked = [
            tup[:i] + (VarCall(Var.fresh("k")),) + tup[i + 1 :]
            for tup in tuples
            for i in range(len(tup))
        ]
        names = list(dict.fromkeys(row.name for row in decl.ctors))
        for tup in itertools.chain(tuples, poked):
            for name in names:
                av = available_ctors(sig, decl.name, tup, fuel, name)
                if isinstance(av, Undecidable):
                    counts[(name, "stuck")] += 1
                else:
                    counts[(name, "available" if av else "unavailable")] += 1
        width = max(len(name) for name in names)
        for name in names:
            a = counts[(name, "available")]
            u = counts[(name, "unavailable")]
            s = counts[(name, "stuck")]
            print(
                f"  {name:<{width}}  available {a:4d}   "
                f"unavailable {u:4d}   stuck {s:4d}"
            )
        print()


if __name__ == "__main__":
    main()
