"""Teams and the team algebra: duplication, supplementation, relation
extraction, restriction, exhaustive and random team generators.

A team is an ordered tuple of variable names plus a frozenset of value rows
(tuples aligned with the variable order).  Teams are canonical: equal teams
compare equal structurally.

Team(...) checks that the variables are distinct and that every row has one
value per variable; parsed teams, restrict and teams built from outside data
go through it.  Teams derived from a valid team (X[F/x] in set_var,
duplicate, supplement and all_supplements, the evaluator's split subteams)
and the generators' teams are built by _generated without those checks:
their variables are the parent's, plus at most one fresh name, or a tuple
checked once, and their rows are the parent's rows, each with one value set
or appended, or rows of the product space, of the right length by
construction.

sample_teams draws each team's coin flips with one getrandbits call in place
of one random() call per assignment; the draws are the same bits of the same
generator words, so its sequence of teams is unchanged (see its docstring).

Team file format: "vars x y z" then one "row a a b" line per assignment.
"""

import itertools
import random


class TeamError(ValueError):
    pass


class TeamCapExceeded(TeamError):
    """Raised when an exhaustive enumeration would exceed the configured cap;
    callers should fall back to sample_teams."""


class Team:
    def __init__(self, variables, rows):
        self.vars = tuple(variables)
        n = len(self.vars)
        if len(set(self.vars)) != n:
            raise TeamError("duplicate variable in team domain")
        rows = frozenset(map(tuple, rows))
        bad = set(map(len, rows)) - {n}
        if bad:
            raise TeamError("row length %d does not match %d variables" % (min(bad), n))
        self.rows = rows

    def __len__(self):
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, Team) and self.vars == other.vars
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.vars, self.rows))

    def __repr__(self):
        return "Team(%r, %r)" % (self.vars, sorted(self.rows))

    def is_empty(self):
        return not self.rows

    def column(self, var):
        try:
            return self.vars.index(var)
        except ValueError:
            raise TeamError("unknown variable %s" % var) from None

    def assignments(self):
        """Rows as dicts variable -> value."""
        for r in sorted(self.rows):
            yield dict(zip(self.vars, r))


def _setter(X, x):
    """The variables of X[F/x], and put(r, a): the row r of X with x set to
    a (overwritten where x is a variable of X, appended otherwise)."""
    if x in X.vars:
        i = X.column(x)
        return X.vars, lambda r, a: r[:i] + (a,) + r[i + 1:]
    return X.vars + (x,), lambda r, a: r + (a,)


def set_var(X, x, choices):
    """X[F/x] for F given as (row, values) pairs, each row a row of X: for
    each pair and each of its values a, the row with x set to a."""
    variables, put = _setter(X, x)
    return _generated(variables, frozenset([put(r, a) for r, values in choices for a in values]))


def all_supplements(X, x, choices):
    """Every X[F/x] for F mapping each row of X to one of `choices` (tuples
    of values), in the order of itertools.product over the sorted rows.
    Each row's extended rows are built once, for all the teams, as one set
    per choice; a team is the union of one set per row."""
    variables, put = _setter(X, x)
    per_row = [[frozenset([put(r, a) for a in values]) for values in choices]
               for r in sorted(X.rows)]
    union = frozenset().union
    for combo in itertools.product(*per_row):
        yield _generated(variables, union(*combo))


def duplicate(X, model, x):
    """X(M/x): every row extended (or overwritten) with every domain value."""
    return set_var(X, x, zip(X.rows, itertools.repeat(model.domain)))


def supplement(X, F, x):
    """X[F/x] for a supplement function F: row-tuple -> nonempty value set."""
    for r in X.rows:
        if r not in F:
            raise TeamError("supplement function undefined on a row")
        if not F[r]:
            raise TeamError("supplement function has an empty value set")
    return set_var(X, x, ((r, F[r]) for r in X.rows))


def rel(X, variables):
    """rel(X, xs): the set of value tuples of xs across the team.  With an
    empty variable list this is {()} iff the team is nonempty."""
    idx = [X.column(v) for v in variables]
    return {tuple(r[i] for i in idx) for r in X.rows}


def restrict(X, variables):
    """X restricted to a sub-domain, duplicates collapsed."""
    variables = tuple(variables)
    idx = [X.column(v) for v in variables]
    return Team(variables, [tuple(r[i] for i in idx) for r in X.rows])


def _generated(variables, rows, _new=object.__new__):
    """A team built without Team's checks.  `variables` is a tuple of
    distinct names: the parent's variables, plus one fresh name, or a tuple
    already checked by Team; `rows` is a frozenset of tuples of its length,
    derived from the rows of a valid team or drawn from the product space."""
    X = _new(Team)
    X.vars = variables
    X.rows = rows
    return X


def all_teams(model, variables, cap=16):
    """Every team of M over the given variables, deterministically ordered.
    Refuses (TeamCapExceeded) when there are more than `cap` assignments."""
    variables = Team(variables, ()).vars
    n_assign = len(model.domain) ** len(variables)
    if n_assign > cap:
        raise TeamCapExceeded(
            "%d assignments exceed the cap of %d; use sample_teams" % (n_assign, cap))
    # the bit-mask order, built lazily by doubling: the teams of masks below
    # 2**i, then each of them with the i-th sorted assignment added
    built = [frozenset()]
    yield _generated(variables, built[0])
    for row in sorted(itertools.product(model.domain, repeat=len(variables))):
        one = {row}
        for i in range(len(built)):
            rows = built[i] | one
            built.append(rows)
            yield _generated(variables, rows)


# byte -> 1 where its top bit is clear, else 0
_TOP_BIT_CLEAR = bytes(range(256)).translate(bytes([1] * 128 + [0] * 128))


def sample_teams(model, variables, count, seed):
    """Pseudo-random teams: each assignment is included independently with
    probability 1/2.  Reproducible from the seed.

    The sequence is that of one `random()` draw per sorted assignment,
    keeping the assignment when the draw is below 1/2, drawn one team at a
    time.  A `random()` call takes two 32-bit words of the generator and is
    below 1/2 exactly when the first word's top bit is clear;
    `getrandbits(64 * n)` takes the same 2n words, the first in the lowest
    bits.  So each team takes its n draws as one `getrandbits` call and
    keeps the assignments whose first word has bit 31 clear: bit 7 of the
    little-endian bytes 3, 11, 19, ...  The teams and the generator's state
    after each team are those of the draw-by-draw loop."""
    variables = Team(variables, ()).vars
    bits = random.Random(seed).getrandbits
    space = sorted(itertools.product(model.domain, repeat=len(variables)))
    n = len(space)
    for _ in range(count):
        keep = bits(64 * n).to_bytes(8 * n, "little")[3::8].translate(_TOP_BIT_CLEAR)
        yield _generated(variables, frozenset(itertools.compress(space, keep)))


def sample_small_teams(model, variables, count, max_rows, seed):
    """Random teams with at most max_rows rows; keeps property suites over
    many variables affordable."""
    variables = Team(variables, ()).vars
    rng = random.Random(seed)
    domain = model.domain
    for _ in range(count):
        k = rng.randint(0, max_rows)
        rows = frozenset([tuple(rng.choice(domain) for _ in variables) for _ in range(k)])
        yield _generated(variables, rows)


def parse_team(text):
    variables = None
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vars":
            if variables is not None:
                raise TeamError("duplicate vars line")
            variables = tuple(parts[1:])
        elif parts[0] == "row":
            if variables is None:
                raise TeamError("row line before vars line")
            if len(parts) - 1 != len(variables):
                raise TeamError("row length mismatch: %r" % raw)
            rows.append(tuple(parts[1:]))
        else:
            raise TeamError("unrecognized line: %r" % raw)
    if variables is None:
        raise TeamError("missing vars line")
    return Team(variables, rows)


def print_team(X):
    lines = ["vars %s" % " ".join(X.vars)]
    for r in sorted(X.rows):
        lines.append("row %s" % " ".join(r))
    return "\n".join(lines) + "\n"
