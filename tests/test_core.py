from __future__ import annotations

import gc
import importlib
import itertools
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sit.core import (
    ConCall,
    DataCall,
    DataDecl,
    FnCall,
    Lam,
    Pi,
    UNIV,
    Univ,
    Var,
    VarCall,
    alpha_eq,
    apply_spine,
    free_vars,
    pretty,
    subst,
)
from sit.coverage import Undecidable, available_ctors
from sit.diagnostics import InternalError
from sit.evaluator import Fuel
from sit.pattern_ops import Matched, match_terms

from support import (
    check_source,
    con,
    corpus_telescopes,
    index_tuples_with_one_var,
    load_corpus,
    ref,
)

# A fixed pool of variables so terms, binders, and substitutions collide.
# Variables used as heads of argument spines live in a separate pool that
# substitutions never target: replacing a spine head is only meaningful for
# a lambda or variable replacement, which typing guarantees and a unit test
# covers.
POOL = [Var.fresh(name) for name in ("a", "b", "c", "d")]
HEADS = [Var.fresh(name) for name in ("f", "g")]


def var_pool():
    return st.sampled_from(POOL)


def terms(max_leaves: int = 10):
    base = st.one_of(
        st.builds(VarCall, var_pool(), st.just(())),
        st.just(UNIV),
        st.just(con("zero")),
    )

    def extend(children):
        return st.one_of(
            st.builds(lambda a: con("suc", a), children),
            st.builds(lambda a, b: FnCall("plus", (a, b)), children, children),
            st.builds(lambda v, a, b: Pi(v, a, b), var_pool(), children, children),
            st.builds(lambda v, a: Lam(v, a), var_pool(), children),
            st.builds(lambda v, a: VarCall(v, (a,)), st.sampled_from(HEADS), children),
        )

    return st.recursive(base, extend, max_leaves=max_leaves)


def substitutions():
    return st.dictionaries(var_pool(), terms(4), max_size=3)


def freshen(t):
    """Rename every binder to a fresh variable; alpha-equal by construction."""
    match t:
        case Pi(x, dom, cod):
            y = Var.fresh(x.text)
            return Pi(y, freshen(dom), freshen(subst(cod, {x: VarCall(y)})))
        case Lam(x, body):
            y = Var.fresh(x.text)
            return Lam(y, freshen(subst(body, {x: VarCall(y)})))
        case VarCall(x, args):
            return VarCall(x, tuple(freshen(a) for a in args))
        case FnCall(name, args):
            return FnCall(name, tuple(freshen(a) for a in args))
        case ConCall(name, args):
            return ConCall(name, tuple(freshen(a) for a in args))
        case _:
            return t


class TestSubst:
    def test_direct_replacement(self):
        x = Var.fresh("x")
        assert subst(ref(x), {x: con("zero")}) == con("zero")

    def test_empty_substitution_is_identity(self):
        x = Var.fresh("x")
        t = con("suc", ref(x))
        assert subst(t, {}) == t

    def test_capture_is_avoided_by_renaming(self):
        # ((y : A) -> x)[y/x] must rename the binder, giving (y' : A) -> y.
        x, y, a = Var.fresh("x"), Var.fresh("y"), Var.fresh("A")
        t = Pi(y, ref(a), ref(x))
        out = subst(t, {x: ref(y)})
        assert isinstance(out, Pi)
        assert out.binder != y
        assert out.codomain == ref(y)
        assert free_vars(out) == {y, a}

    def test_shadowed_binder_blocks_substitution(self):
        x, a = Var.fresh("x"), Var.fresh("A")
        t = Lam(x, ref(x))
        assert subst(t, {x: ref(a)}) == t

    def test_spine_head_replacement_beta_reduces(self):
        f, y = Var.fresh("f"), Var.fresh("y")
        t = VarCall(f, (con("zero"),))
        lam = Lam(y, con("suc", ref(y)))
        assert subst(t, {f: lam}) == con("suc", con("zero"))

    def test_untouched_subterms_are_shared(self):
        x, y = Var.fresh("x"), Var.fresh("y")
        other = con("suc", ref(y))
        t = FnCall("plus", (ref(x), other))
        out = subst(t, {x: con("zero")})
        assert out == FnCall("plus", (con("zero"), other))
        assert out.args[1] is other
        assert subst(t, {Var.fresh("z"): con("zero")}) is t

    @settings(max_examples=200)
    @given(terms())
    def test_identity(self, t):
        assert subst(t, {}) == t

    def test_replacements_apply_at_once(self):
        # A value is never substituted into again, so {x: y, y: x} swaps.
        x, y = Var.fresh("x"), Var.fresh("y")
        t = FnCall("plus", (ref(x), con("suc", ref(y))))
        out = subst(t, {x: ref(y), y: ref(x)})
        assert out == FnCall("plus", (ref(y), con("suc", ref(x))))

    @settings(max_examples=200)
    @given(terms(), substitutions())
    def test_respects_alpha(self, t, s):
        # Capture bugs show up as disagreement with a fully freshened copy,
        # whose binders cannot capture anything from the pool.
        assert alpha_eq(subst(t, s), subst(freshen(t), s))

    @settings(max_examples=200)
    @given(terms(), var_pool(), terms(4))
    def test_free_variable_flow(self, t, x, v):
        out = free_vars(subst(t, {x: v}))
        allowed = (free_vars(t) - {x}) | free_vars(v)
        assert out <= allowed
        if x in free_vars(t):
            assert free_vars(v) <= out


# Dependent telescopes for the one-pass tests: a later entry's type, and a
# plain row's fields, mention earlier entries.
DEPENDENT = """
data Nat : Type
  | zero
  | suc (n : Nat)
data Vec (A : Type) (n : Nat) : Type
  | A, zero => vnil
  | A, suc m => vcons (x : A) (xs : Vec A m)
data Fin (n : Nat) : Type
  | suc m => fzero
  | suc m => fsuc (i : Fin m)
data Dep (A : Type) (n : Nat) (i : Fin n) (v : Vec A n) : Type
  | mk (a : A) (w : Vec A (suc n)) (j : Fin (suc n))
def pick (A : Type) (n : Nat) (v : Vec A n) (i : Fin n) : A
"""


def _signatures():
    yield check_source(DEPENDENT, coverage=False)
    for name in ("nat", "list", "vec", "fin", "normalize"):
        yield load_corpus(name)


def reference_eq(u, v, env) -> bool:
    """`alpha_eq`'s definition as a recursive walk, one frame per level.

    `env` holds both directions of the renaming: `(0, x)` maps a binder of
    `u` in scope to its partner in `v`, and `(1, y)` maps back.
    """

    def bound(x, y):
        return {**env, (0, x): y, (1, y): x}

    match u, v:
        case Lam(x, body), VarCall(f, args):
            w = Var.fresh(x.text)
            return reference_eq(body, VarCall(f, args + (VarCall(w),)), bound(x, w))
        case VarCall(f, args), Lam(y, body):
            w = Var.fresh(y.text)
            return reference_eq(VarCall(f, args + (VarCall(w),)), body, bound(w, y))
        case VarCall(x, us), VarCall(y, vs):
            same_head = env.get((0, x), x) == y and env.get((1, y), y) == x
        case (ConCall(m, us), ConCall(n, vs)) | (FnCall(m, us), FnCall(n, vs)) | (
            DataCall(m, us), DataCall(n, vs)
        ):
            same_head = m == n
        case Pi(x, a, b), Pi(y, c, d):
            return reference_eq(a, c, env) and reference_eq(b, d, bound(x, y))
        case Lam(x, b), Lam(y, d):
            return reference_eq(b, d, bound(x, y))
        case Univ(), Univ():
            return True
        case _:
            return False
    return (
        same_head
        and len(us) == len(vs)
        and all(reference_eq(a, b, env) for a, b in zip(us, vs))
    )


def de_bruijn(t, scope=()):
    """`t` with each bound variable as the distance to its binder (`scope`
    holds the binders in scope, innermost first) and each free one as
    itself, in eta-short form: `fn x => f a x` is `f a` when `x` is not free
    in `f a`. Two terms are equal up to renaming and eta exactly when these
    forms are equal."""
    match t:
        case VarCall(x, args):
            head = scope.index(x) if x in scope else x
            return ("var", head, tuple(de_bruijn(a, scope) for a in args))
        case Lam(x, body):
            b = de_bruijn(body, (x,) + scope)
            if b[0] == "var" and b[2] and b[2][-1] == ("var", 0, ()):
                short = _unbind(("var", b[1], b[2][:-1]))
                if short is not None:
                    return short
            return ("lam", b)
        case Pi(x, dom, cod):
            return ("pi", de_bruijn(dom, scope), de_bruijn(cod, (x,) + scope))
        case ConCall(name, args) | FnCall(name, args) | DataCall(name, args):
            return (type(t).__name__, name, tuple(de_bruijn(a, scope) for a in args))
        case Univ():
            return ("type",)
    raise AssertionError(t)


def _unbind(t, depth=0):
    """`t` with its innermost binder removed: each distance past `depth`
    one less, or None when the variable at `depth` itself occurs."""
    kind = t[0]
    if kind == "type":
        return t
    if kind == "lam":
        body = _unbind(t[1], depth + 1)
        return None if body is None else ("lam", body)
    if kind == "pi":
        dom, cod = _unbind(t[1], depth), _unbind(t[2], depth + 1)
        return None if dom is None or cod is None else ("pi", dom, cod)
    head = t[1]
    if kind == "var" and type(head) is int and head >= depth:
        if head == depth:
            return None
        head -= 1
    args = tuple(_unbind(a, depth) for a in t[2])
    return None if None in args else (kind, head, args)


# Few names, so a variable is often bound on one side and free on the other.
NAMES = st.sampled_from(POOL[:3])


def twin_terms(max_leaves: int = 8):
    """Pairs of terms of one shape whose variables and binders are drawn
    apart: often a renaming, often a clash. One form pairs an eta-expanded
    call with a plain one, whose added binder may capture an argument."""
    base = st.one_of(
        st.builds(lambda x, y: (ref(x), ref(y)), NAMES, NAMES),
        st.just((UNIV, UNIV)),
    )

    def extend(pairs):
        return st.one_of(
            st.builds(lambda x, y, p: (Lam(x, p[0]), Lam(y, p[1])), NAMES, NAMES, pairs),
            st.builds(
                lambda x, y, p, q: (Pi(x, p[0], q[0]), Pi(y, p[1], q[1])),
                NAMES, NAMES, pairs, pairs,
            ),
            st.builds(lambda p: (con("suc", p[0]), con("suc", p[1])), pairs),
            st.builds(
                lambda f, g, p: (VarCall(f, (p[0],)), VarCall(g, (p[1],))),
                NAMES, NAMES, pairs,
            ),
            st.builds(
                lambda x, f, g, p: (
                    Lam(x, VarCall(f, (p[0], ref(x)))), VarCall(g, (p[1],))
                ),
                NAMES, NAMES, NAMES, pairs,
            ),
        )

    return st.recursive(base, extend, max_leaves=max_leaves)


class TestAlphaEq:
    def test_renaming_ends_with_its_binder(self):
        # `x` is bound in the first argument and free in the second.
        x, y = Var.fresh("x"), Var.fresh("y")
        u = DataCall("P", (Lam(x, ref(x)), ref(x)))
        assert alpha_eq(u, DataCall("P", (Lam(y, ref(y)), ref(x))))
        assert not alpha_eq(u, DataCall("P", (Lam(y, ref(y)), ref(y))))

    def test_pi_domain_is_outside_its_binder(self):
        x, y = Var.fresh("x"), Var.fresh("y")
        assert alpha_eq(Pi(x, ref(x), ref(x)), Pi(y, ref(x), ref(y)))
        assert not alpha_eq(Pi(x, ref(x), ref(x)), Pi(y, ref(y), ref(y)))

    def test_inner_binder_shadows_outer(self):
        x, y, z = Var.fresh("x"), Var.fresh("y"), Var.fresh("z")
        u = Lam(x, Lam(x, ref(x)))
        assert alpha_eq(u, Lam(y, Lam(z, ref(z))))
        assert not alpha_eq(u, Lam(y, Lam(z, ref(y))))

    def test_eta(self):
        f, g, x, y = (Var.fresh(n) for n in "fgxy")
        a = con("zero")
        assert alpha_eq(Lam(x, VarCall(f, (a, ref(x)))), VarCall(f, (a,)))
        assert alpha_eq(VarCall(f, (a,)), Lam(x, VarCall(f, (a, ref(x)))))
        # Under a binder, and twice over: fn x y => f x y equals f.
        assert alpha_eq(Lam(x, Lam(y, VarCall(f, (ref(x), ref(y))))), ref(f))
        assert alpha_eq(Lam(g, ref(g)), Lam(g, Lam(x, VarCall(g, (ref(x),)))))
        assert not alpha_eq(Lam(x, VarCall(f, (ref(x), ref(x)))), VarCall(f, (a,)))
        assert not alpha_eq(Lam(x, VarCall(g, (ref(x),))), ref(f))
        # A lambda is not eta-equal to a constructor or a function call.
        assert not alpha_eq(Lam(x, con("suc", ref(x))), con("suc"))

    @settings(max_examples=300)
    @given(terms(8), terms(8))
    def test_agrees_with_the_recursive_definition(self, u, v):
        assert alpha_eq(u, v) == reference_eq(u, v, {})

    def test_bound_never_equals_free(self):
        x, y = POOL[:2]
        assert not alpha_eq(Lam(x, ref(y)), Lam(y, ref(y)))
        assert not alpha_eq(Lam(y, ref(y)), Lam(x, ref(y)))
        # The binder an eta step adds is new: it captures no free `x`.
        f = HEADS[0]
        assert not alpha_eq(Lam(x, VarCall(f, (ref(x), ref(x)))), VarCall(f, (ref(x),)))
        assert not alpha_eq(VarCall(f, (ref(x),)), Lam(x, VarCall(f, (ref(x), ref(x)))))

    @settings(max_examples=500)
    @given(twin_terms())
    def test_agrees_with_de_bruijn_and_is_symmetric(self, pair):
        u, v = pair
        assert alpha_eq(u, v) == (de_bruijn(u) == de_bruijn(v)) == alpha_eq(v, u)

    @settings(max_examples=200)
    @given(terms())
    def test_freshened_and_eta_expanded_terms_are_equal(self, t):
        x = Var.fresh("x")
        assert alpha_eq(t, freshen(t)) and alpha_eq(freshen(t), t)
        for f in HEADS:
            assert alpha_eq(Lam(x, VarCall(f, (t, ref(x)))), VarCall(f, (freshen(t),)))


class TestOnePassInstantiation:
    """Instantiating a telescope through one map agrees with substituting
    its entries one at a time whenever the arguments do not mention the
    telescope's own variables: each telescope above and in the corpus, at
    enumerated arguments with a free variable somewhere."""

    @staticmethod
    def instantiations(sig, tele):
        return itertools.islice(index_tuples_with_one_var(sig, tele, 4), 300)

    def test_entry_types(self):
        checked = 0
        for sig in _signatures():
            for tele in corpus_telescopes(sig):
                xs = [x for x, _ in tele]
                for args in self.instantiations(sig, tele):
                    for i, (_, ty) in enumerate(tele):
                        one_pass = subst(ty, dict(zip(xs[:i], args[:i])))
                        one_at_a_time = ty
                        for x, a in zip(xs[:i], args[:i]):
                            one_at_a_time = subst(one_at_a_time, {x: a})
                        assert alpha_eq(one_pass, one_at_a_time)
                        checked += 1
        assert checked > 1000

    def test_constructor_fields(self):
        checked = 0
        for sig in _signatures():
            for decl in sig.decls:
                if not isinstance(decl, DataDecl):
                    continue
                xs = [x for x, _ in decl.telescope]
                for args in self.instantiations(sig, decl.telescope):
                    data_sub = dict(zip(xs, args))
                    for name in dict.fromkeys(row.name for row in decl.ctors):
                        got = available_ctors(sig, decl.name, args, Fuel(), name)
                        if isinstance(got, Undecidable) or not got:
                            continue
                        got = got[name]
                        row, sub = _first_matching_row(decl, name, args)
                        assert [x for x, _ in got] == [x for x, _ in row.fields]
                        for (_, a), (_, ty) in zip(got, row.fields):
                            assert alpha_eq(a, subst(subst(ty, sub), data_sub))
                            checked += 1
        assert checked > 100


def _first_matching_row(decl, name, args):
    """The first row of constructor `name` that matches `args`, and its
    bindings: the row whose fields `available_ctors` gives."""
    for row in decl.ctors:
        if row.name == name:
            out = match_terms(args, row.patterns)
            if isinstance(out, Matched):
                return row, out.sub
    raise AssertionError(f"no row of {name} matches")


class TestApplySpine:
    def test_variable_spine_grows(self):
        f = Var.fresh("f")
        assert apply_spine(ref(f), (con("zero"),)) == VarCall(f, (con("zero"),))

    def test_lambda_beta(self):
        y = Var.fresh("y")
        assert apply_spine(Lam(y, ref(y)), (con("zero"),)) == con("zero")

    def test_unappliable_head(self):
        with pytest.raises(InternalError):
            apply_spine(con("zero"), (con("zero"),))


class TestPretty:
    def test_application_parenthesization(self):
        assert pretty(con("suc", con("suc", con("zero")))) == "suc (suc zero)"

    def test_dependent_and_plain_arrows(self):
        x = Var.fresh("n")
        dependent = Pi(x, con("Nat"), VarCall(x))
        assert pretty(dependent) == "(n : Nat) → n"
        plain = Pi(Var.fresh("_"), con("Nat"), con("Nat"))
        assert pretty(plain) == "Nat → Nat"

    def test_arrow_and_lambda_domains_are_parenthesized(self):
        y = Var.fresh("y")
        arrow = Pi(Var.fresh("_"), con("Nat"), con("Nat"))
        assert pretty(Pi(Var.fresh("_"), arrow, con("Nat"))) == "(Nat → Nat) → Nat"
        lam = Lam(y, VarCall(y))
        assert pretty(Pi(Var.fresh("_"), lam, con("Nat"))) == "(fn y => y) → Nat"


def _drop_sit() -> None:
    for name in [k for k in sys.modules if k == "sit" or k.startswith("sit.")]:
        del sys.modules[name]


def test_reimport_frees_the_previous_copy():
    # Type aliases written with `typing` (`Union[...]`, `Callable[...]`) are
    # cached by `typing`, and the cache kept the classes of every copy of sit
    # that was ever imported alive.
    saved = {k: m for k, m in sys.modules.items() if k == "sit" or k.startswith("sit.")}
    try:
        _drop_sit()
        old = weakref.ref(importlib.import_module("sit").core.ConCall)
        _drop_sit()
        importlib.import_module("sit")
        gc.collect()
        assert old() is None
    finally:
        _drop_sit()
        sys.modules.update(saved)
