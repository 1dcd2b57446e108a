"""Algebraic-circuit intermediate representation.

A circuit is a gate-labelled DAG with multiplicity wires: gates carry a label
(variable, rational constant, plus, times), wires carry positive integer
multiplicities, and there is a unique output gate.  Input gates are globally
unique per label (builders hash-cons variables and constants), have no
children, and the output has no parents.

Wire multiplicities mean repetition: a Plus gate sums children weighted by
wire multiplicity; a Times gate multiplies children raised to the wire
multiplicity.

Shapes:
  GENERAL       any valid circuit,
  SKEW          every Times gate has at most one internal (non-input) child,
  FORMULA       no multiedges and the internal gates induce a tree,
  FORMULA_MULTI internal gates induce a tree, multiedges allowed.

Variable naming: x_<i>_<j> for the matrix variable x_{i,j} (1-based);
colourful variables are x_<u>_<i>__<v>_<j>.

A `CircuitBuilder` only wires a new gate to gates it returned before, so its
gate ids are a topological order.  `finish` hands the builder's gate lists
over to the circuit, renumbering only if it prunes a gate, and spends the
builder.  `topo_order` reads the order off such ids with no walk, and
`validate` checks reachability as "every gate but the output has a parent"
from each gate's parent count, keeping no parent lists.  Every plus (times)
gate of a builder or a file shares one label tuple.

Evaluation takes ints and Fractions only, and runs in two tiers over one
plan per circuit, for both alike.  The plan steps over the circuit's own
children dicts, with pass-through gates folded away (see
`_evaluation_program`): the td formulas of the `compile_extract` workload
have 42% fewer steps than internal gates, its skew circuits 22% and its
general circuits 14%.  The first KERNEL_AFTER - 1 evaluations run an
interpreter loop over the plan; the KERNEL_AFTER-th builds one Python
function from the same plan, one assignment per step
(`g12 = g3 * g5 ** 2`), and every later evaluation calls it.  The constants
were measured on that workload (Python 3.11, 2 shared vCPUs):
  KERNEL_AFTER = 32      a build takes about 6.7 us per plan step (0.28 ms
                         for the mean plan of 42 steps), the time of about
                         29 interpreted evaluations, and pays back after
                         about 39 kernel runs; built on the second
                         evaluation instead, circuits evaluated only a few
                         times, such as each compiled circuit on its 5
                         rational hosts, pay for kernels that barely run,
                         and a round took 2.07 s against 1.80 s (2.00 s
                         with no kernel at all; measured on the unfolded
                         plan, when `rigidify` still evaluated every
                         circuit it copied at 4 points);
  KERNEL_GATE_CAP = 2048 larger plans stay interpreted: the plan of the
                         workload's extraction circuit, 7,825 steps, takes
                         0.075 s to compile, raising the peak RSS from
                         29.5 to 49.5 MB, while the largest plan it compiles
                         has 157 steps (42 on average);
  KERNEL_LINE_OPERANDS = 64  longer sums and products go on several lines,
                         because compiling a 5000-operand `a + a + ...`
                         raises RecursionError.
The kernel's source holds only gate ids, wire multiplicities and shift
exponents, never a label or a variable name: values come in by position.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm
from typing import Dict, Generator, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import InvalidParameter, MissingVariable, ParseError, SizeCap, check_cap
from .exactnum import (Rational, SparsePolynomial, add_terms, common_denominator, mul_terms,
                       int_from_json, list_from_json, pow_terms, rational_from_json,
                       rational_to_json)

GENERAL = "general"
SKEW = "skew"
FORMULA = "formula"
FORMULA_MULTI = "formula_multi"

SHAPES = (GENERAL, SKEW, FORMULA, FORMULA_MULTI)

PLUS = "plus"
TIMES = "times"
_LABELS = {PLUS: (PLUS,), TIMES: (TIMES,)}  # one label tuple shared by every such gate
EXPANSION_TERM_LIMIT = 10 ** 6  # most terms `expand_symbolic` keeps at one gate
KERNEL_AFTER = 32  # the evaluation of a plan that builds its kernel
KERNEL_GATE_CAP = 2048  # plans with more steps are never compiled
KERNEL_LINE_OPERANDS = 64  # most operands of one sum or product on a kernel line
_INT_ONLY = frozenset((int,))  # the input types that take the D = 1 path


def var_name(i: int, j: int) -> str:
    """Matrix variable x_{i,j}, 1-based."""
    return f"x_{i}_{j}"


_VAR_NAME = re.compile(r"x_([1-9][0-9]*)_([1-9][0-9]*)")


def parse_var_name(name: str) -> Tuple[int, int]:
    """(i, j) of the name `var_name(i, j)`, i, j >= 1; InvalidParameter otherwise."""
    match = _VAR_NAME.fullmatch(name)
    if match is None:
        raise InvalidParameter(f"not a matrix variable name: {name!r}")
    return int(match[1]), int(match[2])


def colour_var_name(cu, i: int, cv, j: int) -> str:
    """Colourful variable x_{(u,i),(v,j)}, 1-based member indices."""
    return f"x_{cu}_{i}__{cv}_{j}"


class Circuit:
    """Immutable gate-labelled DAG; construct through CircuitBuilder."""

    __slots__ = ("labels", "children", "output", "_parents", "_topo", "_shapes",
                 "_program", "_runs", "_kernel")

    def __init__(self, labels: List, children: List[Dict[int, int]], output: int):
        self.labels = labels
        self.children = children
        self.output = output
        self._parents: Optional[List[List[int]]] = None
        self._topo: Optional[List[int]] = None
        self._shapes: Dict[str, Tuple[bool, str]] = {}
        self._program = None
        self._runs = 0  # evaluations of the plan
        self._kernel = None  # and its kernel, once built

    # -- structure ------------------------------------------------------------

    def num_gates(self) -> int:
        return len(self.labels)

    def is_input(self, g: int) -> bool:
        return self.labels[g][0] in ("var", "const")

    def wires(self) -> List[Tuple[int, int, int]]:
        out = []
        for parent, ch in enumerate(self.children):
            for child, mult in sorted(ch.items()):
                out.append((parent, child, mult))
        return out

    def size(self) -> int:
        """Total number of gates plus wires counted with multiplicity."""
        return self.num_gates() + sum(m for ch in self.children for m in ch.values())

    def parents(self) -> List[List[int]]:
        if self._parents is None:
            ps: List[List[int]] = [[] for _ in self.labels]
            for parent, ch in enumerate(self.children):
                for child in ch:
                    ps[child].append(parent)
            self._parents = ps
        return self._parents

    def topo_order(self) -> List[int]:
        """Children before parents; raises if a cycle exists.

        The order of a depth-first walk from each gate in id order, children
        in id order.  When every wire goes to a lower id, as in every built
        circuit, that walk emits the ids in order and the ids prove the
        circuit acyclic, so no walk runs."""
        if self._topo is not None:
            return self._topo
        n = self.num_gates()
        if all(not ch or max(ch) < g for g, ch in enumerate(self.children)):
            self._topo = list(range(n))
            return self._topo
        state = [0] * n  # 0 new, 1 active, 2 done
        order: List[int] = []
        for start in range(n):
            if state[start]:
                continue
            stack: List[Tuple[int, Iterable[int]]] = [(start, iter(sorted(self.children[start])))]
            state[start] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for child in it:
                    if state[child] == 1:
                        raise InvalidParameter("circuit contains a cycle")
                    if state[child] == 0:
                        state[child] = 1
                        stack.append((child, iter(sorted(self.children[child]))))
                        advanced = True
                        break
                if not advanced:
                    state[node] = 2
                    order.append(node)
                    stack.pop()
        self._topo = order
        return order

    def variables(self) -> List[str]:
        return sorted(lbl[1] for lbl in self.labels if lbl[0] == "var")

    # -- semantics --------------------------------------------------------------

    def _evaluation_program(self):
        """The evaluation plan, built once: the variable gates and their
        names, the constant gates, their values and the lcm of their
        denominators, the plan steps in topological order as (gate, wires,
        whether every wire has multiplicity 1, shifted children), the last
        None at a Times gate, the gate whose value is the output's, and that
        gate's degree.

        Integral constants are stored as plain ints so 0/1 and integer
        evaluations stay in fast integer arithmetic.  A rational evaluation
        keeps each gate's value as N / D**k with N an integer, D the lcm of
        every input's denominator and k the gate's structural degree: 1 at
        inputs, the largest child degree at a Plus gate and the sum of mult *
        child degree at a Times gate.  A Plus gate lifts each child of lower
        degree to its own by D ** shift; those children, rare in practice,
        are listed apart as (child, mult, shift).  Int inputs run with
        D = 1, where a shift multiplies by 1.

        Pass-through gates are folded away.  A Times gate drops its wires to
        the constant 1, which carry D**mult over D**mult and change no
        value; a product of constant 1s alone is then the empty product 1,
        of degree 0.  A gate left with one child of multiplicity 1 is no
        step: its parents (and the output) read that child instead, whose
        value and degree are its own, and children that fold onto one gate
        add their multiplicities.  A step's wires are the circuit's own
        children dict, so the plan holds no second copy of the wires; a new
        dict is made only where a wire was folded or dropped, or a Plus
        gate's lower-degree children are set apart.
        """
        if self._program is None:
            var_gates, names, const_gates, consts, gates = [], [], [], [], []
            degree = [1] * self.num_gates()
            folded: Dict[int, int] = {}  # a pass-through gate -> the gate it reads
            one = None  # the constant-1 gate
            for g in self.topo_order():
                lbl = self.labels[g]
                if lbl[0] == "var":
                    var_gates.append(g)
                    names.append(lbl[1])
                    continue
                if lbl[0] == "const":
                    const_gates.append(g)
                    consts.append(int(lbl[1]) if lbl[1].denominator == 1 else lbl[1])
                    if lbl[1] == 1:
                        one = g
                    continue
                times = lbl[0] == TIMES
                wires = self.children[g]
                dropped = one if times else None
                if dropped in wires or not folded.keys().isdisjoint(wires):
                    merged: Dict[int, int] = {}
                    for c, mult in wires.items():
                        c = folded.get(c, c)
                        if c != dropped:
                            merged[c] = merged.get(c, 0) + mult
                    wires = merged
                if len(wires) == 1:
                    (c, mult), = wires.items()
                    if mult == 1:
                        folded[g] = c
                        continue
                if times:
                    degree[g] = sum([mult * degree[c] for c, mult in wires.items()])
                    shifted = None
                else:
                    top = degree[g] = max([degree[c] for c in wires])
                    shifted = [(c, mult, top - degree[c]) for c, mult in wires.items()
                               if degree[c] < top]
                    if shifted:
                        wires = {c: mult for c, mult in wires.items() if degree[c] == top}
                gates.append((g, wires, all(m == 1 for m in wires.values()), shifted))
            out = folded.get(self.output, self.output)
            self._program = (var_gates, names, const_gates, consts, common_denominator(consts),
                             gates, out, degree[out])
        return self._program

    def evaluate(self, assignment: Mapping[str, Rational]) -> Rational:
        """Exact value at a total assignment of the circuit's variables.

        Int and Fraction inputs are computed over the integers (see
        `_evaluation_program`) and divided once at the output; the result is
        an int when every input is an int, as plain arithmetic would give.
        Any other input type, a bool included, raises InvalidParameter.
        When every input is exactly an int and the circuit has no
        non-integral constant, the plan runs with D = 1 and no denominator
        is looked at.

        The plan is interpreted on its first KERNEL_AFTER - 1 evaluations,
        whatever their input types, and run by its kernel (see
        `_build_kernel`) from then on, unless it has more than
        KERNEL_GATE_CAP steps; the module docstring gives the measurements
        behind both constants.  The two tiers give the same value of the
        same type.  The kernel takes the values in plan order, so no
        variable name or other text of the circuit reaches its source.
        """
        var_gates, names, const_gates, consts, const_den, gates, out, top = \
            self._evaluation_program()
        try:
            xs = list(map(assignment.__getitem__, names))
        except KeyError:
            missing = next(name for name in names if name not in assignment)
            raise MissingVariable(f"assignment lacks {missing!r}") from None
        if const_den == 1 and _INT_ONLY.issuperset(map(type, xs)):
            den, ints_in = 1, True
        else:
            den = lcm(common_denominator(xs), const_den)
            ints_in = den == 1 and all(isinstance(v, int) for v in xs)
            if not ints_in:
                xs = [v.numerator * (den // v.denominator) for v in xs]
            if den != 1:
                consts = [v.numerator * (den // v.denominator) for v in consts]
        kernel = self._kernel
        if kernel is None:
            self._runs += 1
            if self._runs >= KERNEL_AFTER and len(gates) <= KERNEL_GATE_CAP:
                kernel = self._kernel = _build_kernel(var_gates, const_gates, gates, out)
        if kernel is None:
            values: List = [None] * self.num_gates()
            for g, value in zip(var_gates, xs):
                values[g] = value
            for g, value in zip(const_gates, consts):
                values[g] = value
            for g, wires, unit, shifted in gates:
                if shifted is None:
                    total = 1
                    if unit:
                        for child in wires:
                            total = total * values[child]
                    else:
                        for child in wires:
                            mult = wires[child]
                            total = total * (values[child] if mult == 1 else values[child] ** mult)
                else:
                    total = 0
                    if unit:
                        for child in wires:
                            total = total + values[child]
                    else:
                        for child in wires:
                            mult = wires[child]
                            total = total + (values[child] if mult == 1 else mult * values[child])
                    for child, mult, shift in shifted:
                        v = values[child] * den ** shift
                        total = total + (v if mult == 1 else mult * v)
                values[g] = total
            result = values[out]
        else:
            result = kernel(xs, consts, den)
        if ints_in:
            return result
        return Fraction(result, den ** top)

    def expand_symbolic(self) -> SparsePolynomial:
        """The computed polynomial, fully expanded; SizeCap guards blow-up.

        Every gate's polynomial is a term dict over the circuit's whole
        variable list, with int coefficients while they are integral, so no
        step realigns variables or builds a Fraction it does not need.
        """
        universe = sorted(set(self.variables()))
        position = {name: k for k, name in enumerate(universe)}
        width = len(universe)
        terms: List[Optional[dict]] = [None] * self.num_gates()
        for g in self.topo_order():
            lbl = self.labels[g]
            children = sorted(self.children[g].items())
            if lbl[0] == "var":
                exp = [0] * width
                exp[position[lbl[1]]] = 1
                acc = {tuple(exp): 1}
            elif lbl[0] == "const":
                value = lbl[1]
                acc = {(0,) * width: int(value) if value.denominator == 1 else value} if value else {}
            elif lbl[0] == PLUS:
                acc = {}
                for child, mult in children:
                    add_terms(acc, terms[child], mult)
            else:
                acc = None
                for child, mult in children:
                    factor = terms[child] if mult == 1 else pow_terms(terms[child], mult, width)
                    acc = factor if acc is None else mul_terms(acc, factor)
                    if len(acc) > EXPANSION_TERM_LIMIT:
                        raise SizeCap(f"symbolic expansion exceeds {EXPANSION_TERM_LIMIT} terms")
            if len(acc) > EXPANSION_TERM_LIMIT:
                raise SizeCap(f"symbolic expansion exceeds {EXPANSION_TERM_LIMIT} terms")
            terms[g] = acc
        return SparsePolynomial(universe, terms[self.output])

    # -- validation ---------------------------------------------------------------

    def validate(self, shape: str = GENERAL) -> Tuple[bool, str]:
        """Structural invariants for the given shape; (ok, first violation).

        Each shape is checked once per circuit and the result kept.  The
        GENERAL invariants come first in every shape and are checked once
        for all of them.
        """
        if shape not in SHAPES:
            raise InvalidParameter(f"unknown shape {shape!r}")
        if shape not in self._shapes:
            reason = self.validate(GENERAL)[1] if shape != GENERAL else ""
            reason = reason or self._violation(shape)
            self._shapes[shape] = (not reason, reason)
        return self._shapes[shape]

    def _violation(self, shape: str) -> str:
        """The first invariant of `shape` the circuit breaks, or ''; a shape
        other than GENERAL is only checked for what it adds to GENERAL."""
        if shape == SKEW:
            for g, lbl in enumerate(self.labels):
                if lbl[0] == TIMES:
                    internal = [c for c in self.children[g] if not self.is_input(c)]
                    if len(internal) > 1:
                        return f"times gate {g} has {len(internal)} internal children"
            return ""
        if shape != GENERAL:
            # Formula variants: internal gates induce a tree rooted at the output.
            counts = self._parent_counts()
            for g, lbl in enumerate(self.labels):
                if lbl[0] in (PLUS, TIMES) and g != self.output and counts[g] != 1:
                    return f"internal gate {g} has {counts[g]} parents"
            if shape == FORMULA:
                for g, ch in enumerate(self.children):
                    for child, mult in ch.items():
                        if mult != 1:
                            return f"multiedge ({g},{child}) with multiplicity {mult}"
            return ""
        try:
            self.topo_order()
        except InvalidParameter as exc:
            return str(exc)
        seen_inputs = {}
        for g, lbl in enumerate(self.labels):
            if lbl[0] == "var":
                key = ("var", lbl[1])
            elif lbl[0] == "const":
                key = ("const", lbl[1])
            else:
                key = None
            if key is not None:
                if key in seen_inputs:
                    return f"duplicate input gate for {key}"
                seen_inputs[key] = g
                if self.children[g]:
                    return f"input gate {g} has children"
            else:
                if lbl[0] not in (PLUS, TIMES):
                    return f"unknown gate label {lbl!r}"
                if not self.children[g]:
                    return f"internal gate {g} has no children"
        # In an acyclic circuit every gate is reachable from the output
        # exactly when the output is the only gate without a parent.
        counts = self._parent_counts()
        if counts[self.output]:
            return "output gate has parents"
        if counts.count(0) > 1:
            return "unreachable gates present"
        return ""

    def _parent_counts(self) -> List[int]:
        """Each gate's number of parents; unlike `parents`, not kept."""
        counts = [0] * self.num_gates()
        for ch in self.children:
            for child in ch:
                counts[child] += 1
        return counts

    # -- serialization ---------------------------------------------------------------

    def to_json(self) -> dict:
        gates = []
        for g, lbl in enumerate(self.labels):
            if lbl[0] == "var":
                gates.append({"id": g, "label": {"var": lbl[1]}})
            elif lbl[0] == "const":
                gates.append({"id": g, "label": {"const": rational_to_json(lbl[1])}})
            else:
                gates.append({"id": g, "label": lbl[0]})
        return {
            "gates": gates,
            "wires": [[p, c, m] for (p, c, m) in self.wires()],
            "output": self.output,
        }

    def serialize(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True).encode("utf-8")

    @staticmethod
    def from_json(data: dict) -> "Circuit":
        try:
            entries = list_from_json(data["gates"], "gate list")
            n = len(entries)
            check_cap("circuit_gates", n, "circuit gate count")
            labels: List = [None] * n
            for entry in entries:
                g = entry["id"]
                if type(g) is not int:
                    g = int_from_json(g)
                if not 0 <= g < n or labels[g] is not None:
                    raise ParseError(f"gate id {g} is out of range [0, {n}) or repeated")
                lbl = entry["label"]
                if isinstance(lbl, str):
                    if lbl not in _LABELS:
                        raise ParseError(f"unknown gate label {lbl!r}")
                    labels[g] = _LABELS[lbl]
                elif "var" in lbl:
                    if type(lbl["var"]) is not str:
                        raise ParseError(f"variable name {lbl['var']!r} is not a string")
                    labels[g] = ("var", lbl["var"])
                elif "const" in lbl:
                    labels[g] = ("const", rational_from_json(lbl["const"]))
                else:
                    raise ParseError(f"unknown gate label {lbl!r}")
            children: List[Dict[int, int]] = [dict() for _ in range(n)]
            for wire in list_from_json(data["wires"], "wire list"):
                if type(wire) is list and len(wire) == 3:
                    p, c, m = wire
                    if type(p) is not int or type(c) is not int or type(m) is not int:
                        p, c, m = map(int_from_json, wire)
                else:
                    p, c, m = (int_from_json(x) for x in list_from_json(wire, "wire"))
                if not (0 <= p < n and 0 <= c < n) or m < 1:
                    raise ParseError(f"bad wire [{p},{c},{m}]")
                children[p][c] = children[p].get(c, 0) + m
            output = int_from_json(data["output"])
            if not 0 <= output < n or any(l is None for l in labels):
                raise ParseError("bad output or gate ids")
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed circuit JSON: {exc}") from exc
        circuit = Circuit(labels, children, output)
        ok, reason = circuit.validate(GENERAL)
        if not ok:
            raise ParseError(f"invalid circuit: {reason}")
        return circuit

    @staticmethod
    def deserialize(blob: bytes) -> "Circuit":
        try:
            data = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParseError(f"not valid circuit JSON: {exc}") from exc
        return Circuit.from_json(data)

    def to_dot(self) -> str:
        lines = ["digraph circuit {"]
        for g, lbl in enumerate(self.labels):
            if lbl[0] == "var":
                text = lbl[1]
            elif lbl[0] == "const":
                text = str(lbl[1])
            else:
                text = "+" if lbl[0] == PLUS else "*"
            shape = ' shape=box' if self.is_input(g) else ""
            lines.append(f'  g{g} [label="{text}"{shape}];')
        for p, c, m in self.wires():
            attr = f' [label="{m}"]' if m > 1 else ""
            lines.append(f"  g{p} -> g{c}{attr};")
        lines.append("}")
        return "\n".join(lines)


def _reachable(children: Sequence[Dict[int, int]], output: int) -> set:
    """The gates reachable from `output` along child wires, itself included."""
    reachable = {output}
    stack = [output]
    while stack:
        for child in children[stack.pop()]:
            if child not in reachable:
                reachable.add(child)
                stack.append(child)
    return reachable


class _HashIndex(dict):
    """Gates by the hash of a structure key, with no key kept: a gate whose
    key has the hash is confirmed by a test on the gate itself.  A hash
    maps to its one gate, or to a list of them after a collision."""

    def find(self, h: int, same) -> Optional[int]:
        """The first gate under hash `h` for which `same(gate)` holds, or None."""
        found = self.get(h)
        if found is None:
            return None
        for g in found if type(found) is list else (found,):
            if same(g):
                return g
        return None

    def add(self, h: int, g: int) -> None:
        found = self.get(h)
        if found is None:
            self[h] = g
        elif type(found) is list:
            found.append(g)
        else:
            self[h] = [found, g]


def _run_nested(root: Generator):
    """The return value of `root`, a recursive builder written as a generator:
    it yields the builder of each subresult and is sent that result back.
    The builders run on an explicit stack, in the order plain recursion
    would, so depth is bounded by memory and not by the recursion limit."""
    stack, value = [root], None
    while stack:
        try:
            nested = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(nested)
            value = None
    return value


def _build_kernel(var_gates: List[int], const_gates: List[int], gates: List,
                  output: int):
    """A gate plan as one straight-line function `kernel(xs, cs, den)`.

    `xs` and `cs` are the values of `var_gates` and `const_gates` in that
    order, `den` is the evaluation's D, and `output` is the gate whose value
    it returns.  Each plan step is one assignment, `g12 = g3 + 2 * g5 + g7
    * den ** 1`, doing the interpreter's operations in its order but for
    its leading `0 +` or `1 *`, which changes no int or Fraction value or
    type; the empty product is `g12 = 1`, and a sum or product of more than
    KERNEL_LINE_OPERANDS operands continues on further lines.  The source
    holds gate ids, multiplicities and shifts only, and runs without
    builtins.
    """
    lines = ["def kernel(xs, cs, den):"]
    for ids, arg in ((var_gates, "xs"), (const_gates, "cs")):
        if ids:
            lines.append("    " + "".join(f"g{g}, " for g in ids) + f"= {arg}")
    for g, wires, _, shifted in gates:
        if shifted is None:
            op, terms = " * ", [f"g{c}" if m == 1 else f"g{c} ** {m}" for c, m in wires.items()]
        else:
            op, terms = " + ", [f"g{c}" if m == 1 else f"{m} * g{c}" for c, m in wires.items()]
            terms += [f"g{c} * den ** {k}" if m == 1 else f"{m} * (g{c} * den ** {k})"
                      for c, m, k in shifted]
        for start in range(0, len(terms), KERNEL_LINE_OPERANDS):
            head = [f"g{g}"] if start else []
            lines.append(f"    g{g} = " + op.join(head + terms[start:start + KERNEL_LINE_OPERANDS]))
        if not terms:
            lines.append(f"    g{g} = 1")
    lines.append(f"    return g{output}")
    namespace: Dict = {"__builtins__": {}}
    exec(compile("\n".join(lines), "<circuit kernel>", "exec"), namespace)
    return namespace["kernel"]


class CircuitBuilder:
    """Accumulates gates; variables and constants are hash-consed.

    Internal gates are fresh on every call, so formulas keep their parallel
    subtrees; with share=True they are keyed by label and merged children, so
    equal structure gets one gate.  A gate's children are gates returned
    before it, so gate ids are a topological order.  `finish` prunes
    unreachable gates and hands the gate lists over to the circuit; the
    builder is then spent, and any later call raises InvalidParameter.
    """

    def __init__(self, share: bool = False):
        self.labels: List = []
        self.children: List[Dict[int, int]] = []
        self._keys: Optional[Dict] = {}  # the gate of each input label
        self._shared = _HashIndex() if share else None  # internal gates, when sharing

    def _live(self) -> None:
        if self._keys is None:
            raise InvalidParameter("this builder has finished its circuit; start a new one")

    def _add(self, label, children: Dict[int, int], key=None) -> int:
        """A new gate, or the one already added under `key`."""
        self._live()
        if key in self._keys:
            return self._keys[key]
        self.labels.append(label)
        self.children.append(children)
        if key is not None:
            self._keys[key] = len(self.labels) - 1
        return len(self.labels) - 1

    def var(self, name: str) -> int:
        key = ("var", name)
        return self._add(key, {}, key)

    def const(self, value: Rational) -> int:
        """The constant gate of an int or a Fraction; InvalidParameter for
        anything else, such as a float or a bool."""
        common_denominator((value,))
        key = ("const", Fraction(value))
        return self._add(key, {}, key)

    def gate(self, label: Tuple, children: Sequence[Tuple[int, int]]) -> int:
        """A gate with a `Circuit.labels` entry as its label, over (builder
        gate, multiplicity) children; a variable or constant takes none."""
        if label[0] == "var":
            return self.var(label[1])
        if label[0] == "const":
            return self.const(label[1])
        self._live()
        acc: Dict[int, int] = {}
        for child, mult in children:
            if mult < 1:
                raise InvalidParameter("wire multiplicities must be >= 1")
            if not 0 <= child < len(self.labels):
                raise InvalidParameter(f"unknown child gate {child}")
            acc[child] = acc.get(child, 0) + mult
        if not acc:
            raise InvalidParameter(f"{label[0]} gate needs at least one child")
        return self.intern(label[0], acc)

    def intern(self, kind: str, wires: Dict[int, int]) -> int:
        """The `kind` gate over `wires` (child -> multiplicity, each child a
        gate this builder returned and each multiplicity >= 1, which are not
        checked again): new on every call, or with share=True the gate
        already built with this label and these wires.  Every gate of one
        kind shares one label tuple.  Shared gates are found by the hash of
        their label and sorted wires, and confirmed against the gate's own
        label and children, so no key is kept besides the hash."""
        label = _LABELS.get(kind) or (kind,)  # an unknown kind fails in `finish`
        if self._shared is None:
            return self._add(label, wires)
        items = sorted(wires.items())
        h = hash((kind, tuple(items)))
        g = self._shared.find(h, lambda old: self.labels[old] == label and self.children[old] == wires)
        if g is None:
            g = self._add(label, dict(items))
            self._shared.add(h, g)
        return g

    def copy(self, circuit: Circuit) -> List[int]:
        """Copy `circuit` in topological order; returns the builder gate of
        each of its gates."""
        new = [0] * circuit.num_gates()
        for g in circuit.topo_order():
            new[g] = self.gate(circuit.labels[g],
                               sorted((new[c], mu) for c, mu in circuit.children[g].items()))
        return new

    def plus(self, children: Sequence[Tuple[int, int]]) -> int:
        return self.gate((PLUS,), children)

    def times(self, children: Sequence[Tuple[int, int]]) -> int:
        return self.gate((TIMES,), children)

    def finish(self, output: int) -> Circuit:
        """The circuit of the gates reachable from `output`, which takes
        over the builder's lists (renumbered only if a gate is pruned) and
        spends the builder."""
        self._live()
        labels, children = self.labels, self.children
        self.labels, self.children, self._keys, self._shared = [], [], None, None
        keep = _reachable(children, output)
        if len(keep) < len(labels):
            keep = sorted(keep)
            remap = {old: new for new, old in enumerate(keep)}
            labels = [labels[old] for old in keep]
            children = [{remap[c]: m for c, m in children[old].items()} for old in keep]
            output = remap[output]
        circuit = Circuit(labels, children, output)
        ok, reason = circuit.validate(GENERAL)
        if not ok:
            raise InvalidParameter(f"built an invalid circuit: {reason}")
        return circuit
