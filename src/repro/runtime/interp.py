"""A small Scheme interpreter over the simulated heap.

The paper's benchmarks are Scheme programs; this interpreter runs a
useful subset of Scheme directly against the
:class:`~repro.runtime.machine.Machine`, so workloads can be written
in the benchmarks' source language and their storage behaviour —
environments, closures, argument lists — lands in the simulated heap
under whichever collector the machine was built with.

Coverage: ``define``, ``lambda``, ``if``, ``cond``, ``let``, ``let*``,
``letrec``, ``begin``, ``quote``, ``set!``, ``and``, ``or``, ``when``,
``unless``, named ``let`` loops, and the primitive procedures a
Gabriel-style benchmark needs (pairs, vectors, fixnum and flonum
arithmetic, predicates).

Faithfulness notes:

* environments are heap structure — a chain of frames, each an
  association list of (symbol . value) pairs — so variable lookup and
  ``set!`` are real heap reads and barrier-visible writes;
* closures are heap vectors [params, body, env], so capturing an
  environment keeps it live exactly as a real implementation would;
* there is no tail-call optimization (evaluation is plain recursion);
  deep Scheme loops should be written with bounded recursion depth.
"""

from __future__ import annotations

from typing import Callable

from repro.runtime.machine import Machine
from repro.runtime.reader import read_all
from repro.runtime.values import Fixnum, Ref, SchemeValue

__all__ = ["Interpreter", "SchemeError"]


class SchemeError(RuntimeError):
    """A runtime error in interpreted code."""


class Interpreter:
    """One interpretation session over a machine."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        #: Global bindings: symbol name -> value.  Host-side, like a
        #: real implementation's global-variable cells.
        self.globals: dict[str, SchemeValue] = {}
        self._primitives: dict[str, Callable] = {}
        self._install_primitives()
        #: Expressions evaluated (a mutator work measure).
        self.steps = 0

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def run(self, text: str) -> SchemeValue:
        """Read and evaluate a whole program; returns the last value."""
        result: SchemeValue = None
        for expr in read_all(self.machine, text):
            result = self.eval(expr, None)
        return result

    def eval(self, expr: SchemeValue, env: SchemeValue) -> SchemeValue:
        machine = self.machine
        self.steps += 1
        # Self-evaluating forms.
        if expr is None or isinstance(expr, (bool, Fixnum, str)):
            return expr
        if isinstance(expr, Ref) and not expr.is_pair():
            if expr.is_symbol():
                return self._lookup(expr, env)
            return expr  # strings, flonums, vectors evaluate to themselves

        head = machine.car(expr)
        if isinstance(head, Ref) and head.is_symbol():
            name = machine.symbol_name(head)
            special = _SPECIAL_FORMS.get(name)
            if special is not None:
                return special(self, machine.cdr(expr), env)
        procedure = self.eval(head, env)
        arguments = [
            self.eval(argument, env)
            for argument in self._iter(machine.cdr(expr))
        ]
        return self.apply(procedure, arguments)

    def apply(
        self, procedure: SchemeValue, arguments: list[SchemeValue]
    ) -> SchemeValue:
        machine = self.machine
        tag = (
            machine.heap.payload_of(procedure.obj_id)
            if isinstance(procedure, Ref) and procedure.is_vector()
            else None
        )
        if tag == "closure":
            params = machine.vector_ref(procedure, 0)
            body = machine.vector_ref(procedure, 1)
            env = machine.vector_ref(procedure, 2)
            frame: SchemeValue = None
            names = list(self._iter(params))
            if len(names) != len(arguments):
                raise SchemeError(
                    f"arity mismatch: expected {len(names)} arguments, "
                    f"got {len(arguments)}"
                )
            for symbol, value in zip(names, arguments):
                frame = machine.cons(machine.cons(symbol, value), frame)
            extended = machine.cons(frame, env)
            result: SchemeValue = None
            for expr in self._iter(body):
                result = self.eval(expr, extended)
            return result
        if isinstance(tag, str) and tag.startswith("primitive:"):
            return self._primitives[tag.removeprefix("primitive:")](arguments)
        raise SchemeError(f"not a procedure: {procedure!r}")

    # ------------------------------------------------------------------
    # Environments (heap association-list chains)
    # ------------------------------------------------------------------

    def _lookup(self, symbol: Ref, env: SchemeValue) -> SchemeValue:
        binding = self._find_binding(symbol, env)
        if binding is not None:
            return self.machine.cdr(binding)
        name = self.machine.symbol_name(symbol)
        if name in self.globals:
            return self.globals[name]
        raise SchemeError(f"unbound variable: {name}")

    def _find_binding(self, symbol: Ref, env: SchemeValue) -> SchemeValue:
        machine = self.machine
        while env is not None:
            frame = machine.car(env)
            while frame is not None:
                binding = machine.car(frame)
                if machine.car(binding) == symbol:
                    return binding
                frame = machine.cdr(frame)
            env = machine.cdr(env)
        return None

    def _iter(self, lst: SchemeValue):
        machine = self.machine
        while lst is not None:
            yield machine.car(lst)
            lst = machine.cdr(lst)

    def _make_closure(
        self, params: SchemeValue, body: SchemeValue, env: SchemeValue
    ) -> Ref:
        machine = self.machine
        closure = machine.make_vector(3)
        machine.heap.set_payload(closure.obj_id, "closure")
        machine.vector_set(closure, 0, params)
        machine.vector_set(closure, 1, body)
        machine.vector_set(closure, 2, env)
        return closure

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------

    def _install_primitives(self) -> None:
        machine = self.machine

        def fixnums(arguments, count=None):
            if count is not None and len(arguments) != count:
                raise SchemeError(f"expected {count} arguments")
            values = []
            for argument in arguments:
                if not isinstance(argument, Fixnum):
                    raise SchemeError(f"expected a fixnum, got {argument!r}")
                values.append(argument.value)
            return values

        def define(name: str, fn: Callable) -> None:
            self._primitives[name] = fn
            procedure = machine.make_vector(1)
            machine.heap.set_payload(procedure.obj_id, f"primitive:{name}")
            self.globals[name] = procedure

        define("+", lambda a: Fixnum(sum(fixnums(a))))
        define("*", lambda a: Fixnum(_product(fixnums(a))))
        define(
            "-",
            lambda a: Fixnum(
                -fixnums(a)[0]
                if len(a) == 1
                else fixnums(a)[0] - sum(fixnums(a)[1:])
            ),
        )
        define("quotient", lambda a: Fixnum(_quotient(*fixnums(a, 2))))
        define("remainder", lambda a: Fixnum(_remainder(*fixnums(a, 2))))
        define("=", lambda a: fixnums(a, 2)[0] == fixnums(a, 2)[1])
        define("<", lambda a: fixnums(a, 2)[0] < fixnums(a, 2)[1])
        define(">", lambda a: fixnums(a, 2)[0] > fixnums(a, 2)[1])
        define("<=", lambda a: fixnums(a, 2)[0] <= fixnums(a, 2)[1])
        define(">=", lambda a: fixnums(a, 2)[0] >= fixnums(a, 2)[1])

        define("cons", lambda a: machine.cons(a[0], a[1]))
        define("car", lambda a: machine.car(a[0]))
        define("cdr", lambda a: machine.cdr(a[0]))
        define("set-car!", lambda a: machine.set_car(a[0], a[1]))
        define("set-cdr!", lambda a: machine.set_cdr(a[0], a[1]))
        define("list", lambda a: _list_of(machine, a))
        define("null?", lambda a: a[0] is None)
        define(
            "pair?",
            lambda a: isinstance(a[0], Ref) and a[0].is_pair(),
        )
        define(
            "symbol?",
            lambda a: isinstance(a[0], Ref) and a[0].is_symbol(),
        )
        define("not", lambda a: a[0] is False)
        define("eq?", lambda a: _eqp(a[0], a[1]))
        define(
            "equal?",
            lambda a: __import__(
                "repro.runtime.interop", fromlist=["scheme_equal"]
            ).scheme_equal(machine, a[0], a[1]),
        )

        define(
            "make-vector",
            lambda a: machine.make_vector(
                fixnums(a[:1], 1)[0], a[1] if len(a) > 1 else None
            ),
        )
        define(
            "vector-ref",
            lambda a: machine.vector_ref(a[0], fixnums(a[1:], 1)[0]),
        )
        define(
            "vector-set!",
            lambda a: machine.vector_set(a[0], fixnums(a[1:2], 1)[0], a[2]),
        )
        define(
            "vector-length",
            lambda a: Fixnum(machine.vector_length(a[0])),
        )

        define("fl+", lambda a: machine.fl_add(a[0], a[1]))
        define("fl-", lambda a: machine.fl_sub(a[0], a[1]))
        define("fl*", lambda a: machine.fl_mul(a[0], a[1]))
        define("fl/", lambda a: machine.fl_div(a[0], a[1]))
        define("fl<", lambda a: machine.fl_less(a[0], a[1]))
        define("flsqrt", lambda a: machine.fl_sqrt(a[0]))
        define(
            "fixnum->flonum",
            lambda a: machine.make_flonum(float(fixnums(a, 1)[0])),
        )


def _product(values: list[int]) -> int:
    result = 1
    for value in values:
        result *= value
    return result


def _quotient(a: int, b: int) -> int:
    if b == 0:
        raise SchemeError("division by zero")
    return int(a / b)  # truncating, as Scheme's quotient


def _remainder(a: int, b: int) -> int:
    if b == 0:
        raise SchemeError("division by zero")
    return a - _quotient(a, b) * b


def _list_of(machine: Machine, items) -> SchemeValue:
    result: SchemeValue = None
    for item in reversed(items):
        result = machine.cons(item, result)
    return result


def _eqp(a: SchemeValue, b: SchemeValue) -> bool:
    if isinstance(a, Ref) and isinstance(b, Ref):
        return a.obj_id == b.obj_id
    return a is b or a == b


# ----------------------------------------------------------------------
# Special forms
# ----------------------------------------------------------------------


def _sf_quote(interp: Interpreter, rest: SchemeValue, env: SchemeValue):
    return interp.machine.car(rest)


def _sf_if(interp: Interpreter, rest: SchemeValue, env: SchemeValue):
    machine = interp.machine
    test = interp.eval(machine.car(rest), env)
    if test is not False:
        return interp.eval(machine.car(machine.cdr(rest)), env)
    alternative = machine.cdr(machine.cdr(rest))
    if alternative is None:
        return None
    return interp.eval(machine.car(alternative), env)


def _sf_define(interp: Interpreter, rest: SchemeValue, env: SchemeValue):
    machine = interp.machine
    target = machine.car(rest)
    if isinstance(target, Ref) and target.is_pair():
        # (define (name . params) body...)
        name = machine.car(target)
        params = machine.cdr(target)
        body = machine.cdr(rest)
        value = interp._make_closure(params, body, env)
    else:
        name = target
        value = interp.eval(machine.car(machine.cdr(rest)), env)
    interp.globals[machine.symbol_name(name)] = value
    return None


def _sf_lambda(interp: Interpreter, rest: SchemeValue, env: SchemeValue):
    machine = interp.machine
    return interp._make_closure(
        machine.car(rest), machine.cdr(rest), env
    )


def _sf_set(interp: Interpreter, rest: SchemeValue, env: SchemeValue):
    machine = interp.machine
    symbol = machine.car(rest)
    value = interp.eval(machine.car(machine.cdr(rest)), env)
    binding = interp._find_binding(symbol, env)
    if binding is not None:
        machine.set_cdr(binding, value)  # a barrier-visible store
        return None
    name = machine.symbol_name(symbol)
    if name in interp.globals:
        interp.globals[name] = value
        return None
    raise SchemeError(f"set! of unbound variable: {name}")


def _sf_begin(interp: Interpreter, rest: SchemeValue, env: SchemeValue):
    result: SchemeValue = None
    for expr in interp._iter(rest):
        result = interp.eval(expr, env)
    return result


def _sf_let(interp: Interpreter, rest: SchemeValue, env: SchemeValue):
    machine = interp.machine
    first = machine.car(rest)
    if isinstance(first, Ref) and first.is_symbol():
        return _named_let(interp, rest, env)
    frame: SchemeValue = None
    for binding in interp._iter(first):
        symbol = machine.car(binding)
        value = interp.eval(machine.car(machine.cdr(binding)), env)
        frame = machine.cons(machine.cons(symbol, value), frame)
    extended = machine.cons(frame, env)
    return _sf_begin(interp, machine.cdr(rest), extended)


def _named_let(interp: Interpreter, rest: SchemeValue, env: SchemeValue):
    # (let loop ((var init) ...) body...) — a self-recursive closure.
    machine = interp.machine
    name = machine.car(rest)
    bindings = machine.car(machine.cdr(rest))
    body = machine.cdr(machine.cdr(rest))
    params: SchemeValue = None
    arguments = []
    for binding in interp._iter(bindings):
        arguments.append(
            interp.eval(machine.car(machine.cdr(binding)), env)
        )
    for binding in reversed(list(interp._iter(bindings))):
        params = machine.cons(machine.car(binding), params)
    # Bind the loop name in a frame the closure's env includes.
    loop_frame = machine.cons(machine.cons(name, None), None)
    loop_env = machine.cons(loop_frame, env)
    closure = interp._make_closure(params, body, loop_env)
    machine.set_cdr(machine.car(loop_frame), closure)
    return interp.apply(closure, arguments)


def _sf_let_star(interp: Interpreter, rest: SchemeValue, env: SchemeValue):
    machine = interp.machine
    extended = env
    for binding in interp._iter(machine.car(rest)):
        symbol = machine.car(binding)
        value = interp.eval(machine.car(machine.cdr(binding)), extended)
        frame = machine.cons(machine.cons(symbol, value), None)
        extended = machine.cons(frame, extended)
    return _sf_begin(interp, machine.cdr(rest), extended)


def _sf_letrec(interp: Interpreter, rest: SchemeValue, env: SchemeValue):
    machine = interp.machine
    frame: SchemeValue = None
    bindings = list(interp._iter(machine.car(rest)))
    for binding in bindings:
        frame = machine.cons(
            machine.cons(machine.car(binding), None), frame
        )
    extended = machine.cons(frame, env)
    for binding in bindings:
        symbol = machine.car(binding)
        value = interp.eval(machine.car(machine.cdr(binding)), extended)
        cell = interp._find_binding(symbol, extended)
        machine.set_cdr(cell, value)
    return _sf_begin(interp, machine.cdr(rest), extended)


def _sf_cond(interp: Interpreter, rest: SchemeValue, env: SchemeValue):
    machine = interp.machine
    for clause in interp._iter(rest):
        test = machine.car(clause)
        if (
            isinstance(test, Ref)
            and test.is_symbol()
            and machine.symbol_name(test) == "else"
        ):
            return _sf_begin(interp, machine.cdr(clause), env)
        value = interp.eval(test, env)
        if value is not False:
            body = machine.cdr(clause)
            if body is None:
                return value
            return _sf_begin(interp, body, env)
    return None


def _sf_and(interp: Interpreter, rest: SchemeValue, env: SchemeValue):
    result: SchemeValue = True
    for expr in interp._iter(rest):
        result = interp.eval(expr, env)
        if result is False:
            return False
    return result


def _sf_or(interp: Interpreter, rest: SchemeValue, env: SchemeValue):
    for expr in interp._iter(rest):
        result = interp.eval(expr, env)
        if result is not False:
            return result
    return False


def _sf_when(interp: Interpreter, rest: SchemeValue, env: SchemeValue):
    machine = interp.machine
    if interp.eval(machine.car(rest), env) is not False:
        return _sf_begin(interp, machine.cdr(rest), env)
    return None


def _sf_unless(interp: Interpreter, rest: SchemeValue, env: SchemeValue):
    machine = interp.machine
    if interp.eval(machine.car(rest), env) is False:
        return _sf_begin(interp, machine.cdr(rest), env)
    return None


_SPECIAL_FORMS = {
    "quote": _sf_quote,
    "if": _sf_if,
    "define": _sf_define,
    "lambda": _sf_lambda,
    "set!": _sf_set,
    "begin": _sf_begin,
    "let": _sf_let,
    "let*": _sf_let_star,
    "letrec": _sf_letrec,
    "cond": _sf_cond,
    "and": _sf_and,
    "or": _sf_or,
    "when": _sf_when,
    "unless": _sf_unless,
}
