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
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import InvalidParameter, MissingVariable, ParseError, SizeCap
from .exactnum import (Rational, SparsePolynomial, add_terms, common_denominator, mul_terms,
                       int_from_json, pow_terms, rational_from_json, rational_to_json)

GENERAL = "general"
SKEW = "skew"
FORMULA = "formula"
FORMULA_MULTI = "formula_multi"

SHAPES = (GENERAL, SKEW, FORMULA, FORMULA_MULTI)

PLUS = "plus"
TIMES = "times"
EXPANSION_TERM_LIMIT = 10 ** 6  # most terms `expand_symbolic` keeps at one gate


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
                 "_program", "_lifted")

    def __init__(self, labels: List, children: List[Dict[int, int]], output: int):
        self.labels = labels
        self.children = children
        self.output = output
        self._parents: Optional[List[List[int]]] = None
        self._topo: Optional[List[int]] = None
        self._shapes: Dict[str, Tuple[bool, str]] = {}
        self._program = None
        self._lifted = None

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
        """Children before parents; raises if a cycle exists."""
        if self._topo is not None:
            return self._topo
        n = self.num_gates()
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

    def depth(self) -> int:
        """Internal gates on the longest output-to-leaf path."""
        depth = [0] * self.num_gates()
        for g in self.topo_order():
            if self.is_input(g):
                depth[g] = 0
            else:
                depth[g] = 1 + max((depth[c] for c in self.children[g]), default=0)
        return depth[self.output]

    # -- semantics --------------------------------------------------------------

    def _evaluation_program(self):
        """The evaluation plan, built once: the variable gates, the constant
        gates with the lcm of their denominators, and the internal gates in
        topological order as (gate, children, shifted children), the last
        None at a Times gate.

        Integral constants are stored as plain ints so 0/1 and integer
        evaluations stay in fast integer arithmetic.  No child is shifted
        here; see `_lifted_program` for rational inputs.
        """
        if self._program is None:
            variables, constants, gates = [], [], []
            for g in self.topo_order():
                lbl = self.labels[g]
                if lbl[0] == "var":
                    variables.append((g, lbl[1]))
                elif lbl[0] == "const":
                    value = lbl[1]
                    constants.append((g, int(value) if value.denominator == 1 else value))
                else:
                    gates.append((g, sorted(self.children[g].items()),
                                  None if lbl[0] == TIMES else ()))
            const_den = common_denominator([value for _, value in constants])
            self._program = (variables, constants, const_den, gates)
        return self._program

    def _lifted_program(self):
        """The internal gates for rational inputs, and the output's degree.

        A rational evaluation keeps each gate's value as N / D**k with N an
        integer, D the lcm of every input's denominator and k the gate's
        structural degree: 1 at inputs, the largest child degree at a Plus
        gate and the sum of mult * child degree at a Times gate.  A Plus gate
        lifts each child of lower degree to its own by D ** shift; those
        children, rare in practice, are listed apart with their shifts.
        """
        if self._lifted is None:
            degree = [1] * self.num_gates()
            lifted = []
            for gate in self._evaluation_program()[3]:
                g, children, shifted = gate
                degrees = [degree[c] for c, _ in children]
                if shifted is None:
                    degree[g] = sum([mult * d for (_, mult), d in zip(children, degrees)])
                else:
                    top = degree[g] = max(degrees)
                    if min(degrees) < top:
                        gate = (g,
                                [(c, mult) for (c, mult), d in zip(children, degrees) if d == top],
                                [(c, mult, top - d)
                                 for (c, mult), d in zip(children, degrees) if d < top])
                lifted.append(gate)
            self._lifted = (lifted, degree[self.output])
        return self._lifted

    def evaluate(self, assignment: Mapping[str, Rational]) -> Rational:
        """Exact value at a total assignment of the circuit's variables.

        Int and Fraction inputs are computed over the integers (see
        `_lifted_program`) and divided once at the output; the result is
        an int when every input is an int, as plain arithmetic would give.
        Any other input value (a ring element) is used as given.
        """
        variables, constants, const_den, gates = self._evaluation_program()
        values: List = [None] * self.num_gates()
        others = []
        for g, name in variables:
            if name not in assignment:
                raise MissingVariable(f"assignment lacks {name!r}")
            value = values[g] = assignment[name]
            if type(value) is not int:
                others.append(value)
        var_den = common_denominator(others)
        ints_in = False
        if var_den is None:
            den = 1
        else:
            den = lcm(var_den, const_den)
            ints_in = den == 1 and all(isinstance(v, int) for v in others)
            if not ints_in:
                for g, _ in variables:
                    v = values[g]
                    values[g] = v.numerator * (den // v.denominator)
        top = 0
        if den != 1:
            gates, top = self._lifted_program()
        for g, value in constants:
            values[g] = value if den == 1 else value.numerator * (den // value.denominator)
        for g, children, shifted in gates:
            if shifted is None:
                total = 1
                for child, mult in children:
                    total = total * (values[child] if mult == 1 else values[child] ** mult)
            else:
                total = 0
                for child, mult in children:
                    total = total + (values[child] if mult == 1 else mult * values[child])
                for child, mult, shift in shifted:
                    v = values[child] * den ** shift
                    total = total + (v if mult == 1 else mult * v)
            values[g] = total
        out = values[self.output]
        if var_den is None or ints_in:
            return out
        return Fraction(out, den ** top)

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
            parents = self.parents()
            for g, lbl in enumerate(self.labels):
                if lbl[0] in (PLUS, TIMES) and g != self.output:
                    if len(parents[g]) != 1:
                        return f"internal gate {g} has {len(parents[g])} parents"
            if shape == FORMULA:
                for g, ch in enumerate(self.children):
                    for child, mult in ch.items():
                        if mult != 1:
                            return f"multiedge ({g},{child}) with multiplicity {mult}"
            return ""
        try:
            topo = self.topo_order()
        except InvalidParameter as exc:
            return str(exc)
        if len(topo) != self.num_gates():
            return "topological order missed gates"
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
        if self.parents()[self.output]:
            return "output gate has parents"
        if len(_reachable(self.children, self.output)) != self.num_gates():
            return "unreachable gates present"
        return ""

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
            n = len(data["gates"])
            labels: List = [None] * n
            for entry in data["gates"]:
                g = int_from_json(entry["id"])
                if not 0 <= g < n or labels[g] is not None:
                    raise ParseError(f"gate id {g} is out of range [0, {n}) or repeated")
                lbl = entry["label"]
                if isinstance(lbl, str):
                    if lbl not in (PLUS, TIMES):
                        raise ParseError(f"unknown gate label {lbl!r}")
                    labels[g] = (lbl,)
                elif "var" in lbl:
                    labels[g] = ("var", str(lbl["var"]))
                elif "const" in lbl:
                    labels[g] = ("const", rational_from_json(lbl["const"]))
                else:
                    raise ParseError(f"unknown gate label {lbl!r}")
            children: List[Dict[int, int]] = [dict() for _ in range(n)]
            for wire in data["wires"]:
                p, c, m = (int_from_json(x) for x in wire)
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


class CircuitBuilder:
    """Accumulates gates; variables and constants are hash-consed.

    Internal gates are fresh on every call, so formulas keep their parallel
    subtrees; `finish` prunes gates unreachable from the output.
    """

    def __init__(self):
        self.labels: List = []
        self.children: List[Dict[int, int]] = []
        self._inputs: Dict = {}

    def _add(self, label, children: Dict[int, int]) -> int:
        self.labels.append(label)
        self.children.append(children)
        return len(self.labels) - 1

    def var(self, name: str) -> int:
        key = ("var", name)
        if key not in self._inputs:
            self._inputs[key] = self._add(key, {})
        return self._inputs[key]

    def const(self, value) -> int:
        key = ("const", Fraction(value))
        if key not in self._inputs:
            self._inputs[key] = self._add(key, {})
        return self._inputs[key]

    def gate(self, label: Tuple, children: Sequence[Tuple[int, int]]) -> int:
        """A gate with a `Circuit.labels` entry as its label, over (builder
        gate, multiplicity) children; a variable or constant takes none."""
        if label[0] == "var":
            return self.var(label[1])
        if label[0] == "const":
            return self.const(label[1])
        acc: Dict[int, int] = {}
        for child, mult in children:
            if mult < 1:
                raise InvalidParameter("wire multiplicities must be >= 1")
            if not 0 <= child < len(self.labels):
                raise InvalidParameter(f"unknown child gate {child}")
            acc[child] = acc.get(child, 0) + mult
        if not acc:
            raise InvalidParameter(f"{label[0]} gate needs at least one child")
        return self._add((label[0],), acc)

    def plus(self, children: Sequence[Tuple[int, int]]) -> int:
        return self.gate((PLUS,), children)

    def times(self, children: Sequence[Tuple[int, int]]) -> int:
        return self.gate((TIMES,), children)

    def finish(self, output: int) -> Circuit:
        keep = sorted(_reachable(self.children, output))
        remap = {old: new for new, old in enumerate(keep)}
        labels = [self.labels[old] for old in keep]
        children = [{remap[c]: m for c, m in self.children[old].items()} for old in keep]
        circuit = Circuit(labels, children, remap[output])
        ok, reason = circuit.validate(GENERAL)
        if not ok:
            raise InvalidParameter(f"built an invalid circuit: {reason}")
        return circuit
