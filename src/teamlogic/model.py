"""Finite relational structures and bounded enumeration of models.

Model file format (line based, "#" starts a comment):

    domain e1 e2 ...
    rel NAME ARITY
      e1 e2 ...
      ...
    rel NAME 0 holds
    const NAME e

A 0-ary relation is false unless its rel line ends in "holds".  An empty
relation keeps no arity in a Model and is printed with arity 0.
"""

import itertools


class ModelError(ValueError):
    pass


class Signature:
    def __init__(self, relations=None, constants=()):
        self.relations = dict(relations or {})  # name -> arity
        self.constants = set(constants)
        overlap = set(self.relations) & self.constants
        if overlap:
            raise ModelError("symbols used as both relation and constant: %s" % sorted(overlap))
        for name, arity in self.relations.items():
            if arity < 0:
                raise ModelError("negative arity for %s" % name)


class Model:
    """Finite structure: ordered domain, relation and constant interpretations."""

    def __init__(self, domain, rels=None, consts=None):
        self.domain = tuple(sorted(set(domain)))
        if not self.domain:
            raise ModelError("domain must be nonempty")
        self.rels = {}
        for name, tuples in (rels or {}).items():
            tuples = frozenset(tuple(t) for t in tuples)
            arities = {len(t) for t in tuples}
            if len(arities) > 1:
                raise ModelError("mixed tuple lengths for relation %s" % name)
            for t in tuples:
                for e in t:
                    if e not in self.domain:
                        raise ModelError("element %r not in domain" % (e,))
            self.rels[name] = tuples
        self.consts = dict(consts or {})
        for name, e in self.consts.items():
            if e not in self.domain:
                raise ModelError("constant %s interpreted outside domain" % name)

    def rel(self, name):
        if name not in self.rels:
            raise ModelError("unknown relation %s" % name)
        return self.rels[name]

    def const(self, name):
        if name not in self.consts:
            raise ModelError("unknown constant %s" % name)
        return self.consts[name]

    def __eq__(self, other):
        return (isinstance(other, Model) and self.domain == other.domain
                and self.rels == other.rels and self.consts == other.consts)

    def __repr__(self):
        return "Model(domain=%r, rels=%r, consts=%r)" % (self.domain, dict(self.rels), self.consts)


def expand_with_relation(model, sym, interp):
    """The (M, R) expansion: add a fresh relation symbol."""
    if sym in model.rels or sym in model.consts:
        raise ModelError("symbol %s already interpreted" % sym)
    rels = dict(model.rels)
    rels[sym] = frozenset(tuple(t) for t in interp)
    return Model(model.domain, rels, model.consts)


def parse_model(text):
    domain = None
    rels = {}
    arities = {}
    consts = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indented = line[0].isspace()
        parts = line.split()
        if indented:
            if current is None:
                raise ModelError("tuple line outside a rel block: %r" % raw)
            if len(parts) != arities[current]:
                raise ModelError("arity mismatch for %s: %r" % (current, raw))
            rels[current].add(tuple(parts))
            continue
        current = None
        if parts[0] == "domain":
            if domain is not None:
                raise ModelError("duplicate domain line: %r" % raw)
            domain = parts[1:]
            if not domain:
                raise ModelError("empty domain")
        elif parts[0] == "rel":
            holds = parts[3:] == ["holds"]
            if len(parts) != 3 and not (holds and parts[2] == "0"):
                raise ModelError("rel line needs NAME ARITY or NAME 0 holds: %r" % raw)
            if not parts[2].isdecimal():
                raise ModelError("rel line needs a nonnegative integer arity: %r" % raw)
            name, arity = parts[1], int(parts[2])
            if name in rels:
                raise ModelError("relation %s declared twice" % name)
            rels[name] = {()} if holds else set()
            arities[name] = arity
            current = name
        elif parts[0] == "const":
            if len(parts) != 3:
                raise ModelError("const line needs NAME ELEMENT: %r" % raw)
            if parts[1] in consts:
                raise ModelError("constant %s declared twice" % parts[1])
            consts[parts[1]] = parts[2]
        else:
            raise ModelError("unrecognized line: %r" % raw)
    if domain is None:
        raise ModelError("missing domain line")
    both = sorted(rels.keys() & consts.keys())
    if both:
        raise ModelError("%s declared as both a relation and a constant" % ", ".join(both))
    return Model(domain, rels, consts)


def print_model(model):
    lines = ["domain %s" % " ".join(model.domain)]
    for name in sorted(model.rels):
        tuples = sorted(model.rels[name])
        if tuples == [()]:
            lines.append("rel %s 0 holds" % name)
            continue
        lines.append("rel %s %d" % (name, len(tuples[0]) if tuples else 0))
        for t in tuples:
            lines.append("  " + " ".join(t))
    for name in sorted(model.consts):
        lines.append("const %s %s" % (name, model.consts[name]))
    return "\n".join(lines) + "\n"


def enumerate_models(sig, max_size):
    """All models over sig with domain {e1..ed}, d <= max_size, in a fixed
    deterministic order.  No isomorphism reduction.

    The models are built without Model's checks, as team._generated builds
    teams: their relations are subsets of the domain's tuple spaces and
    their constants domain elements, valid by construction.  Each has the
    invariants Model(...) gives: the domain as its sorted tuple (e1, e10,
    e2, ... from size 10 on), each relation a frozenset of tuples, and the
    constants a dict."""
    if max_size < 1:
        raise ModelError("max_size must be >= 1")
    rel_names = sorted(sig.relations)
    const_names = sorted(sig.constants)
    new = object.__new__
    for d in range(1, max_size + 1):
        domain = tuple("e%d" % i for i in range(1, d + 1))
        ordered = tuple(sorted(domain))
        tuple_spaces = [sorted(itertools.product(domain, repeat=sig.relations[r]))
                        for r in rel_names]
        rel_choices = [_subsets(space) for space in tuple_spaces]
        for rel_combo in itertools.product(*rel_choices):
            for const_combo in itertools.product(domain, repeat=len(const_names)):
                model = new(Model)
                model.domain = ordered
                model.rels = dict(zip(rel_names, rel_combo))
                model.consts = dict(zip(const_names, const_combo))
                yield model


def _subsets(items):
    out = []
    n = len(items)
    for mask in range(1 << n):
        out.append(frozenset(items[i] for i in range(n) if mask >> i & 1))
    return out
