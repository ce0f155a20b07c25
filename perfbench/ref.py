"""Reference solvers and output checkers.

The solvers are written from the mathematics, not from the designs: the
heat reference runs the explicit stencil over the whole rod at once
(the design splits it into segments with ghost cells), and the LU
reference is Gaussian elimination with partial pivoting (the design
hard-codes a pivot-free 3x3 Doolittle factorisation). Outputs are
printed by the program with 12 significant digits, so every value is
compared with a relative tolerance of REL_TOL (plus ABS_TOL near zero).
"""

import re

REL_TOL = 1e-9
ABS_TOL = 1e-9


def heat(rod, segments, steps, cells, alphas):
    """Explicit 1-D heat stencil with zero ghost cells at both ends."""
    n = segments * cells
    u = [float(v) for v in rod[:n]]
    coeff = [alphas[i // cells] for i in range(n)]
    for _ in range(steps):
        left = [0.0] + u[:-1]
        right = u[1:] + [0.0]
        u = [p + a * ((lft - 2 * p) + rgt)
             for a, lft, p, rgt in zip(coeff, left, u, right)]
    return u


def solve(a, b):
    """Solves the n x n system a (row-major) x = b by elimination with
    partial pivoting."""
    n = len(b)
    m = [[float(a[i * n + j]) for j in range(n)] + [float(b[i])]
         for i in range(n)]
    for k in range(n):
        pivot = max(range(k, n), key=lambda i: abs(m[i][k]))
        m[k], m[pivot] = m[pivot], m[k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n + 1):
                m[i][j] -= f * m[k][j]
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = (m[i][n] - sum(m[i][j] * x[j] for j in range(i + 1, n))) / m[i][i]
    return x


def close(got, want):
    if len(got) != len(want):
        return False
    return all(abs(g - w) <= ABS_TOL + REL_TOL * abs(w)
               for g, w in zip(got, want))


_STORE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*) = (.*)$")
_EXECUTIONS = re.compile(r"^\((\d+) task executions(, wall [0-9.e+-]+s)?\)$")


def parse_run(text):
    """Parses one rendered run result (`banger trial`/`run` output, or one
    block of a batch): returns ({store: [values]}, task executions)."""
    stores = {}
    executions = None
    for line in text.splitlines():
        m = _STORE.match(line)
        if m:
            value = m.group(2)
            if value.startswith("[") and value.endswith("]"):
                inner = value[1:-1].strip()
                stores[m.group(1)] = ([float(v) for v in inner.split(",")]
                                      if inner else [])
            else:
                stores[m.group(1)] = [float(value)]
            continue
        m = _EXECUTIONS.match(line)
        if m:
            executions = int(m.group(1))
    return stores, executions


def check_run(text, store, want, tasks):
    """True when `text` holds `store` = want (within tolerance) computed
    by `tasks` task executions."""
    try:
        stores, executions = parse_run(text)
    except ValueError:
        return False
    return executions == tasks and store in stores and close(stores[store], want)


def split_blocks(text, word):
    """Splits batch output into its `=== <word> K of N ===` blocks."""
    parts = re.split(r"^=== %s (\d+) of (\d+) ===\n" % word, text,
                     flags=re.MULTILINE)
    if parts[0] != "":
        return None
    blocks = []
    for i in range(1, len(parts), 3):
        if int(parts[i]) != len(blocks) + 1:
            return None
        blocks.append(parts[i + 2])
    return blocks


def check_batch(text, word, store, wants, tasks):
    """Checks every block of a batch against its reference; returns the
    number of blocks that are missing or wrong."""
    blocks = split_blocks(text, word)
    if blocks is None or len(blocks) != len(wants):
        return len(wants)
    return sum(not check_run(block, store, want, tasks)
               for block, want in zip(blocks, wants))


def check_verdict(code, text, defect):
    """`banger check` verdict: a clean design exits 0 with no error; a
    design with an injected defect exits 1 and names its code."""
    errors = re.findall(r"error\[(BAN\d{3})\]", text)
    if defect is None:
        return code == 0 and not errors
    return code == 1 and defect in errors


_TRAILER = re.compile(r"^makespan ([0-9.e+-]+)  speedup ([0-9.e+-]+)  "
                      r"efficiency ([0-9.e+-]+)  procs used (\d+)/(\d+)$",
                      re.MULTILINE)


def check_schedule(text, total_work, critical_work):
    """Sanity of a Gantt schedule's trailer against bounds computed here:
    the makespan is at least the critical path's work and at least the
    total work spread over every processor (speed 1.0 machines)."""
    m = _TRAILER.search(text)
    if not m:
        return False
    makespan = float(m.group(1))
    used, procs = int(m.group(4)), int(m.group(5))
    eps = 1e-6 * max(1.0, makespan)
    return (0 < used <= procs and makespan + eps >= critical_work
            and makespan + eps >= total_work / procs)


def heat_work(segments, steps, cells):
    """(total work, critical-path work) of a heat design."""
    step = cells / 4.0
    return segments * (1 + steps * step) + 1, 1 + steps * step + 1
