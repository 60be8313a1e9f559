"""The Boyer rewriter and tautology checker (nboyer / sboyer).

A faithful port of the benchmark's core procedures — ``rewrite``,
``rewrite-with-lemmas``, ``one-way-unify``, ``tautologyp``, ``tautp``
— operating on heap-allocated term structure.  The rewriter rebuilds
every compound term it touches, which is the benchmark's notorious
allocation behaviour ("recursive duplication and rewriting of a tree",
§7.2): once a subtree reaches canonical form its storage becomes
nearly permanent, while the rewriting of small subtrees churns
short-lived pairs.

``shared_consing=True`` applies Henry Baker's tweak (the ``sboyer``
variant): "check to see whether the subterms it has rewritten are
identical (in the sense of a pointer comparison) to the subterms of
the term it is rewriting; if they are, then the original term can be
returned instead of a copy."  The mutator becomes "a trifle slower"
(the extra comparisons) but allocation collapses.
"""

from __future__ import annotations

from repro.programs.boyer.terms import (
    apply_subst,
    is_compound,
    member_equal,
    term_equal,
)
from repro.runtime.machine import Machine
from repro.runtime.values import Fixnum, Ref, SchemeValue

__all__ = ["BoyerRewriter"]


class BoyerRewriter:
    """One rewriting session over a lemma database.

    Args:
        machine: the runtime to allocate in.
        lemmas: operator name -> lemma terms ``(equal lhs rhs)``.
        shared_consing: Baker's sboyer tweak (see module docstring).
    """

    def __init__(
        self,
        machine: Machine,
        lemmas: dict[str, list[SchemeValue]],
        *,
        shared_consing: bool = False,
    ) -> None:
        self.machine = machine
        self.lemmas = lemmas
        self.shared_consing = shared_consing
        #: Rewrite-rule applications performed (a work measure).
        self.rewrite_count = 0

    # ------------------------------------------------------------------
    # Unification
    # ------------------------------------------------------------------

    def one_way_unify(
        self, term: SchemeValue, pattern: SchemeValue
    ) -> dict[object, SchemeValue] | None:
        """Match ``term`` against ``pattern``; return bindings or None.

        Symbols in the pattern are match variables; numeric literals
        are constants (the nboyer bug fix); compound patterns require
        the same operator and matching argument lists.
        """
        subst: dict[object, SchemeValue] = {}
        return subst if self._unify1(subst, term, pattern) else None

    # Methods taking ``subst``, not closures over it: a pair of mutually
    # recursive closures is a reference cycle that owns the
    # substitution, and every handle bound in a failed match would stay
    # a root until CPython's cycle collector next ran.

    def _unify1(
        self,
        subst: dict[object, SchemeValue],
        term: SchemeValue,
        pattern: SchemeValue,
    ) -> bool:
        machine = self.machine
        if not is_compound(pattern):
            if isinstance(pattern, Fixnum):
                return isinstance(term, Fixnum) and term == pattern
            if isinstance(pattern, Ref) and pattern.is_symbol():
                key = machine.symbol_name(pattern)
                bound = subst.get(key)
                if bound is not None:
                    return term_equal(machine, term, bound)
                subst[key] = term
                return True
            return term == pattern
        if not is_compound(term):
            return False
        if machine.car(term) != machine.car(pattern):
            return False
        return self._unify_list(subst, machine.cdr(term), machine.cdr(pattern))

    def _unify_list(
        self,
        subst: dict[object, SchemeValue],
        terms: SchemeValue,
        patterns: SchemeValue,
    ) -> bool:
        machine = self.machine
        while patterns is not None:
            if terms is None:
                return False
            if not self._unify1(
                subst, machine.car(terms), machine.car(patterns)
            ):
                return False
            terms = machine.cdr(terms)
            patterns = machine.cdr(patterns)
        return terms is None

    # ------------------------------------------------------------------
    # Rewriting
    # ------------------------------------------------------------------

    def rewrite(self, term: SchemeValue) -> SchemeValue:
        """Normalize a term under the lemma database (original ``rewrite``)."""
        machine = self.machine
        if not is_compound(term):
            return term
        operator = machine.car(term)
        old_args = machine.cdr(term)
        new_args = self._rewrite_args(old_args)
        if self.shared_consing and _same(new_args, old_args):
            candidate = term  # sboyer: reuse the original cell
        else:
            candidate = machine.cons(operator, new_args)
        return self._rewrite_with_lemmas(candidate)

    def _rewrite_args(self, args: SchemeValue) -> SchemeValue:
        machine = self.machine
        if args is None:
            return None
        old_head = machine.car(args)
        old_tail = machine.cdr(args)
        new_head = self.rewrite(old_head)
        new_tail = self._rewrite_args(old_tail)
        if (
            self.shared_consing
            and _same(new_head, old_head)
            and _same(new_tail, old_tail)
        ):
            return args  # share the whole unchanged tail
        return machine.cons(new_head, new_tail)

    def _rewrite_with_lemmas(self, term: SchemeValue) -> SchemeValue:
        machine = self.machine
        operator = machine.car(term)
        if isinstance(operator, Ref) and operator.is_symbol():
            for lemma in self.lemmas.get(machine.symbol_name(operator), ()):
                pattern = _second(machine, lemma)
                subst = self.one_way_unify(term, pattern)
                if subst is not None:
                    self.rewrite_count += 1
                    replacement = apply_subst(
                        machine, subst, _third(machine, lemma)
                    )
                    return self.rewrite(replacement)
        return term

    # ------------------------------------------------------------------
    # Tautology checking
    # ------------------------------------------------------------------

    def tautp(self, term: SchemeValue) -> bool:
        """The benchmark's top level: rewrite, then check for tautology."""
        return self.tautologyp(self.rewrite(term), None, None)

    def tautologyp(
        self,
        term: SchemeValue,
        true_lst: SchemeValue,
        false_lst: SchemeValue,
    ) -> bool:
        machine = self.machine
        while True:
            if self._truep(term, true_lst):
                return True
            if self._falsep(term, false_lst):
                return False
            if not is_compound(term):
                return False
            if not _head_is(machine, term, "if"):
                return False
            condition = _second(machine, term)
            then_branch = _third(machine, term)
            else_branch = _fourth(machine, term)
            if self._truep(condition, true_lst):
                term = then_branch
            elif self._falsep(condition, false_lst):
                term = else_branch
            else:
                return self.tautologyp(
                    then_branch, machine.cons(condition, true_lst), false_lst
                ) and self.tautologyp(
                    else_branch, true_lst, machine.cons(condition, false_lst)
                )

    def _truep(self, term: SchemeValue, lst: SchemeValue) -> bool:
        machine = self.machine
        if _head_is(machine, term, "t"):
            return True
        return member_equal(machine, term, lst)

    def _falsep(self, term: SchemeValue, lst: SchemeValue) -> bool:
        machine = self.machine
        if _head_is(machine, term, "f"):
            return True
        return member_equal(machine, term, lst)


def _head_is(machine: Machine, term: SchemeValue, name: str) -> bool:
    """Whether a term is compound with the given operator symbol."""
    if not is_compound(term):
        return False
    head = machine.car(term)
    return (
        isinstance(head, Ref)
        and head.is_symbol()
        and machine.symbol_name(head) == name
    )


def _same(a: SchemeValue, b: SchemeValue) -> bool:
    """Pointer identity on heap values, plain equality on immediates."""
    if isinstance(a, Ref) and isinstance(b, Ref):
        return a.obj_id == b.obj_id
    return a is b or a == b


def _second(machine: Machine, lst: SchemeValue) -> SchemeValue:
    return machine.car(machine.cdr(lst))


def _third(machine: Machine, lst: SchemeValue) -> SchemeValue:
    return machine.car(machine.cdr(machine.cdr(lst)))


def _fourth(machine: Machine, lst: SchemeValue) -> SchemeValue:
    return machine.car(machine.cdr(machine.cdr(machine.cdr(lst))))
