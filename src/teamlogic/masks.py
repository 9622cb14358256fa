"""Mask tests: dep/ind/inc atoms and first-order literals decided on a
masked team (team.MaskedTeam) by bit operations on its int mask.

A team over `space`, the sorted assignments to its variables, is the mask
whose bit i is set iff space[i] is a row.  A cell is the mask of the
assignments sharing one value of a projection (a row key of
semantics._key); the team meets a cell iff mask & cell is nonzero.  Each
function builds, once per space, the cells its atom reads, and returns the
atom's test of a nonempty mask, holds(mask).
"""


def _cell_masks(space, key):
    """key(r) -> the mask of the assignments r of space with that value."""
    cells = {}
    for i, r in enumerate(space):
        k = key(r)
        cells[k] = cells.get(k, 0) | 1 << i
    return cells


def dep(space, key, val):
    """=(xs; ys), with key and val the projections onto xs and ys: at most
    one nonempty ys-cell per xs-value, so the first nonempty cell of each
    xs-value leaves the rest of that value's assignments empty."""
    groups = {}
    for (k, _), cell in _cell_masks(space, lambda r: (key(r), val(r))).items():
        groups.setdefault(k, []).append(cell)
    table = [[(cell, sum(cells) & ~cell) for cell in cells] for cells in groups.values()]

    def holds(mask):
        for cells in table:
            for cell, rest in cells:
                if mask & cell:
                    if mask & rest:
                        return False
                    break
        return True
    return holds


def ind(space, xkey, zkey, ykey):
    """ind(xs; zs; ys), zkey None without zs: in each zs-class, every
    nonempty xs-cell and nonempty ys-cell meet in a nonempty cell, so the
    class is the product of its projections (Graedel & Vaananen, Studia
    Logica 2013)."""
    if zkey is None:
        zkey = lambda r: ()
    classes = {}
    for side, key in ((0, xkey), (1, ykey)):
        for (z, v), cell in _cell_masks(space, lambda r: (zkey(r), key(r))).items():
            classes.setdefault(z, ([], []))[side].append((v, cell))
    pairs = _cell_masks(space, lambda r: (zkey(r), xkey(r), ykey(r)))
    table = [(sum(c for _, c in xs), [c for _, c in ys],
              [(xcell, [pairs.get((z, a, b), 0) for b, _ in ys]) for a, xcell in xs])
             for z, (xs, ys) in classes.items()]

    def holds(mask):
        for zcell, ycells, xrows in table:
            if mask & zcell:
                present = [k for k, cell in enumerate(ycells) if mask & cell]
                for xcell, both in xrows:
                    if mask & xcell:
                        for k in present:
                            if not mask & both[k]:
                                return False
        return True
    return holds


def inc(space, xkey, ykey):
    """inc(xs; ys): no nonempty xs-cell whose ys-cell of the same value is
    empty."""
    ycells = _cell_masks(space, ykey)
    table = [(xcell, ycells.get(v, 0)) for v, xcell in _cell_masks(space, xkey).items()]

    def holds(mask):
        for xcell, ycell in table:
            if mask & xcell and not mask & ycell:
                return False
        return True
    return holds


def literal(space, test):
    """A first-order formula with the row test `test`, which must raise on
    no assignment: the mask misses every assignment failing it."""
    failing = sum(1 << i for i, r in enumerate(space) if not test(r))
    return lambda mask: not mask & failing
