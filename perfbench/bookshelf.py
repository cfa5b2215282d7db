"""Bookshelf bundle reading and an independent legality check.

The checks here share no code with the program: they re-derive, from the
files alone, that every movable cell is placed on a row, on the site grid,
inside the core and overlapping no other cell, and they recompute the
displacement the program claims in its run report. Rules that need the
program's technology model (fences, rail parity, edge spacing) are left to
`mclegal check`, which the benchmark runs as well.
"""

import os


class Bundle:
    """The parts of a Bookshelf bundle the checks need."""

    def __init__(self, directory):
        files = os.listdir(directory)

        def path(ext):
            found = [f for f in files if f.endswith(ext)]
            if len(found) != 1:
                raise ValueError(f"{directory}: expected one *{ext} file, found {found}")
            return os.path.join(directory, found[0])

        self.names = []
        self.width = []
        self.height = []
        self.fixed = []
        with open(path(".nodes")) as f:
            for line in f:
                tok = line.split()
                if len(tok) < 3 or tok[0] in ("UCLA", "NumNodes", "NumTerminals"):
                    continue
                self.names.append(tok[0])
                self.width.append(int(tok[1]))
                self.height.append(int(tok[2]))
                self.fixed.append(len(tok) > 3 and tok[3] == "terminal")
        self.index = {n: i for i, n in enumerate(self.names)}

        rows = []
        row = {}
        with open(path(".scl")) as f:
            for line in f:
                tok = line.replace(":", " ").split()
                if not tok:
                    continue
                if tok[0] == "CoreRow":
                    row = {}
                elif tok[0] == "End":
                    rows.append(row)
                elif len(tok) >= 2 and tok[0] in (
                    "Coordinate", "Height", "Sitewidth", "SubrowOrigin", "NumSites",
                ):
                    row[tok[0]] = int(tok[1])
        if not rows:
            raise ValueError(f"{directory}: no rows in .scl")
        self.row_height = rows[0]["Height"]
        self.site_width = rows[0]["Sitewidth"]
        self.xl = min(r["SubrowOrigin"] for r in rows)
        self.xh = max(r["SubrowOrigin"] + r["NumSites"] * r["Sitewidth"] for r in rows)
        self.yl = min(r["Coordinate"] for r in rows)
        self.yh = max(r["Coordinate"] + r["Height"] for r in rows)
        self.row_ys = sorted(r["Coordinate"] for r in rows)
        self.gp = read_pl(path(".pl"), self.index)

    def movable(self):
        return (i for i, fixed in enumerate(self.fixed) if not fixed)


def read_pl(path, index):
    """Positions from a `.pl` file as a list indexed like the nodes."""
    pos = [None] * len(index)
    with open(path) as f:
        for line in f:
            tok = line.split()
            if len(tok) < 3 or tok[0] == "UCLA":
                continue
            i = index.get(tok[0])
            if i is None:
                raise ValueError(f"{path}: unknown node {tok[0]}")
            pos[i] = (int(float(tok[1])), int(float(tok[2])))
    return pos


def check_legal(bundle, pos):
    """Problems with placement `pos` (list of (x, y) per node); empty if none."""
    problems = []
    row_of = {y: r for r, y in enumerate(bundle.row_ys)}
    occupancy = [[] for _ in bundle.row_ys]
    for i, p in enumerate(pos):
        name = bundle.names[i]
        if p is None:
            problems.append(f"{name}: unplaced")
            continue
        x, y = p
        w, h = bundle.width[i], bundle.height[i]
        if not bundle.fixed[i]:
            if (x - bundle.xl) % bundle.site_width:
                problems.append(f"{name}: x {x} off the site grid")
            if y not in row_of:
                problems.append(f"{name}: y {y} not on a row")
            if x < bundle.xl or x + w > bundle.xh or y < bundle.yl or y + h > bundle.yh:
                problems.append(f"{name}: outside the core")
        r0 = row_of.get(y)
        if r0 is None:
            continue
        for r in range(r0, min(r0 + h // bundle.row_height, len(occupancy))):
            occupancy[r].append((x, x + w, i))
        if len(problems) > 20:
            return problems
    for r, cells in enumerate(occupancy):
        cells.sort()
        for (_, a_xh, a), (b_xl, _, b) in zip(cells, cells[1:]):
            if b_xl < a_xh:
                problems.append(
                    f"{bundle.names[a]} overlaps {bundle.names[b]} in row {r}"
                )
                if len(problems) > 20:
                    return problems
    return problems


def displacement_dbu(bundle, pos, cells, homes=None):
    """Summed Manhattan displacement of `cells` from their homes (GP by default)."""
    homes = homes or {}
    total = 0
    for i in cells:
        hx, hy = homes.get(i, bundle.gp[i])
        x, y = pos[i]
        total += abs(x - hx) + abs(y - hy)
    return total
