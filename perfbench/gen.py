"""Seeded input generators.

One seed produces every design, edit, machine, input line and request
line a workload uses. Nothing here reads the clock or the environment:
the same seed always yields byte-identical text.

Numbers are written with repr(), which gives the shortest text that
parses back to the same double, so the program and the reference
solvers start from identical values.
"""

import json
import random

# Defects an edit may inject, with the analyser code each must raise.
# Each one is provable from the routine text alone.
DEFECTS = ("BAN104", "BAN106", "BAN006", "BAN107")

EDIT_SIZES = (16, 32, 64)  # segments = steps; 4 cells per segment
EDIT_CELLS = 4


def rng_for(seed, *parts):
    """An independent stream per (seed, purpose, index)."""
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def num(x):
    """Design-file number: integral values without a fraction."""
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def vec(values):
    return "[" + ", ".join(repr(v) for v in values) + "]"


# ---------------------------------------------------------------- designs


def heat_design(segments, steps, cells, alphas, defect=None, defect_at=None):
    """1-D heat diffusion, one task per (step, segment).

    The structure follows workloads::heat_design: `init` tasks slice the
    `rod` input, `st<t>_<s>` tasks apply the explicit stencil with ghost
    cells from their neighbours, `gather` concatenates the last step into
    `result`. Segment s uses diffusion coefficient alphas[s]. `defect`
    (one of DEFECTS) is injected into task st<t>_<s> for defect_at=(t, s).
    """
    chunk = 8.0 * cells
    out = ["design heat1d", "graph heat1d",
           "  store rod bytes=" + num(chunk * segments),
           "  store result bytes=" + num(chunk * segments)]
    arcs = []

    def u(t, s):
        return "u%d_%d" % (t, s)

    def el(t, s):
        return "el%d_%d" % (t, s)

    def er(t, s):
        return "er%d_%d" % (t, s)

    def producer(t, s):
        return "init%d" % s if t == 0 else "st%d_%d" % (t, s)

    for s in range(segments):
        out.append("  task init%d work=1 in=rod out=%s,%s,%s"
                   % (s, u(0, s), el(0, s), er(0, s)))
        out += ["  pits {",
                "    %s := slice(rod, %d, %d)" % (u(0, s), s * cells, (s + 1) * cells),
                "    %s := %s[0]" % (el(0, s), u(0, s)),
                "    %s := %s[%d]" % (er(0, s), u(0, s), cells - 1),
                "  }"]
        arcs.append("  arc rod -> init%d var=rod bytes=%s" % (s, num(chunk * segments)))

    for t in range(1, steps + 1):
        for s in range(segments):
            prev = u(t - 1, s)
            ins = [prev]
            gl = gr = "0"
            if s > 0:
                ins.append(er(t - 1, s - 1))
                gl = er(t - 1, s - 1)
            if s + 1 < segments:
                ins.append(el(t - 1, s + 1))
                gr = el(t - 1, s + 1)
            name = "st%d_%d" % (t, s)
            out.append("  task %s work=%s in=%s out=%s,%s,%s"
                       % (name, num(cells / 4.0), ",".join(ins),
                          u(t, s), el(t, s), er(t, s)))
            body = [
                "n := len(%s)" % prev,
                "un := zeros(n)",
                "i := 0",
                "while i < n do",
                "  lft := when(i > 0, %s[i - 1], %s)" % (prev, gl),
                "  rgt := when(i < n - 1, %s[i + 1], %s)" % (prev, gr),
                "  un[i] := %s[i] + %s * (lft - 2 * %s[i] + rgt)"
                % (prev, repr(alphas[s]), prev),
                "  i := i + 1",
                "end",
                "%s := un" % u(t, s),
                "%s := un[0]" % el(t, s),
                "%s := un[n - 1]" % er(t, s),
            ]
            if defect is not None and defect_at == (t, s):
                body = inject(body, defect, prev, er(t, s))
            out.append("  pits {")
            out += ["    " + line for line in body]
            out.append("  }")
            arcs.append("  arc %s -> %s var=%s bytes=%s"
                        % (producer(t - 1, s), name, prev, num(chunk)))
            if s > 0:
                arcs.append("  arc %s -> %s var=%s bytes=8"
                            % (producer(t - 1, s - 1), name, er(t - 1, s - 1)))
            if s + 1 < segments:
                arcs.append("  arc %s -> %s var=%s bytes=8"
                            % (producer(t - 1, s + 1), name, el(t - 1, s + 1)))

    finals = [u(steps, s) for s in range(segments)]
    out.append("  task gather work=1 in=%s out=result" % ",".join(finals))
    out.append("  pits {")
    out.append("    result := " + finals[0])
    out += ["    result := concat(result, %s)" % f for f in finals[1:]]
    out.append("  }")
    for s in range(segments):
        arcs.append("  arc st%d_%d -> gather var=%s bytes=%s"
                    % (steps, s, finals[s], num(chunk)))
    arcs.append("  arc gather -> result var=result bytes=" + num(chunk * segments))
    return "\n".join(out + arcs) + "\n"


def inject(body, defect, prev, right_out):
    """Returns the stencil routine `body` with one proven defect."""
    body = list(body)
    if defect == "BAN104":  # division by a literal zero
        body.insert(body.index("end") + 1, "un[0] := un[0] / 0")
    elif defect == "BAN106":  # call to an unknown function
        body[0] = "n := lenn(%s)" % prev
    elif defect == "BAN006":  # declared output never assigned
        body.remove("%s := un[n - 1]" % right_out)
    elif defect == "BAN107":  # wrong number of arguments
        body[0] = "n := len(%s, 2)" % prev
    else:
        raise ValueError("unknown defect " + defect)
    return body


def heat_tasks(segments, steps):
    return segments + segments * steps + 1


def lu_design():
    """The paper's Figure 1 LU 3x3 design (workloads::lu3x3_design)."""
    return """design lu3x3
graph lu3x3
  store A bytes=72
  store b bytes=24
  store L bytes=72
  store U bytes=72
  store x bytes=24
  task fan1 work=2 in=A out=l21,l31
  pits {
    l21 := A[3] / A[0]
    l31 := A[6] / A[0]
  }
  task upd2 work=4 in=A,l21 out=u22,u23
  pits {
    u22 := A[4] - l21 * A[1]
    u23 := A[5] - l21 * A[2]
  }
  task upd3 work=4 in=A,l31 out=a32p,a33p
  pits {
    a32p := A[7] - l31 * A[1]
    a33p := A[8] - l31 * A[2]
  }
  task fan2 work=1 in=a32p,u22 out=l32
  pits {
    l32 := a32p / u22
  }
  task upd4 work=2 in=a33p,l32,u23 out=u33
  pits {
    u33 := a33p - l32 * u23
  }
  task packL work=3 in=l21,l31,l32 out=L
  pits {
    L := [1, 0, 0, l21, 1, 0, l31, l32, 1]
  }
  task packU work=3 in=A,u22,u23,u33 out=U
  pits {
    U := [A[0], A[1], A[2], 0, u22, u23, 0, 0, u33]
  }
  super solve graph=solve_sub in=L,U,b out=x
  arc A -> fan1 var=A bytes=72
  arc A -> upd2 var=A bytes=72
  arc A -> upd3 var=A bytes=72
  arc A -> packU var=A bytes=72
  arc fan1 -> upd2 var=l21 bytes=8
  arc fan1 -> upd3 var=l31 bytes=8
  arc fan1 -> packL var=l21 bytes=8
  arc fan1 -> packL var=l31 bytes=8
  arc upd2 -> fan2 var=u22 bytes=8
  arc upd3 -> fan2 var=a32p bytes=8
  arc upd2 -> upd4 var=u23 bytes=8
  arc upd3 -> upd4 var=a33p bytes=8
  arc fan2 -> upd4 var=l32 bytes=8
  arc fan2 -> packL var=l32 bytes=8
  arc upd2 -> packU var=u22 bytes=8
  arc upd2 -> packU var=u23 bytes=8
  arc upd4 -> packU var=u33 bytes=8
  arc packL -> L var=L bytes=72
  arc packU -> U var=U bytes=72
  arc L -> solve var=L bytes=72
  arc U -> solve var=U bytes=72
  arc b -> solve var=b bytes=24
  arc solve -> x var=x bytes=24
graph solve_sub
  store y bytes=24
  task fwd work=6 in=L,b out=y
  pits {
    y1 := b[0]
    y2 := b[1] - L[3] * y1
    y3 := b[2] - L[6] * y1 - L[7] * y2
    y := [y1, y2, y3]
  }
  task back work=9 in=U,y out=x
  pits {
    x3 := y[2] / U[8]
    x2 := (y[1] - U[5] * x3) / U[4]
    x1 := (y[0] - U[1] * x2 - U[2] * x3) / U[0]
    x := [x1, x2, x3]
  }
  arc fwd -> y var=y bytes=24
  arc y -> back var=y bytes=24
"""


LU_TASKS = 9


def layered_design(tasks=4096, width=64):
    """Random layered DAG without routines: scheduling work only. It is
    drawn from a fixed stream, the same for every seed, so that every
    seed asks the schedulers for the same work."""
    rng = random.Random("layered")
    layers = tasks // width
    out = ["design layered", "graph layered"]
    arcs = []
    for layer in range(layers):
        for i in range(width):
            out.append("  task t%d_%d work=%d" % (layer, i, rng.randint(1, 20)))
            if layer == 0:
                continue
            for p in sorted(rng.sample(range(width), rng.randint(1, 3))):
                arcs.append("  arc t%d_%d -> t%d_%d bytes=%d"
                            % (layer - 1, p, layer, i,
                               rng.choice((8, 64, 512, 4096))))
    return "\n".join(out + arcs) + "\n"


def machine(name, shape, startup=0.05, bandwidth=1024):
    """Target machine text. The name is part of the text, so a machine
    with a new name is a new machine to every cache."""
    return ("machine %s\ntopology %s\nspeed 1.0\nprocess_startup 0.0\n"
            "message_startup %s\nbandwidth %d\nrouting store-and-forward\n"
            % (name, shape, repr(startup), bandwidth))


def fixed_machine(name):
    """The 4-processor machine the CLI workloads run on."""
    return machine(name, "hypercube dim=2")


def alphas(rng, segments):
    return [rng.randint(50, 450) / 1000.0 for _ in range(segments)]


def rod(rng, n):
    return [rng.randint(0, 100000) / 1000.0 for _ in range(n)]


def lu_system(rng):
    """A diagonally dominant 3x3 system, so no pivot is near zero."""
    a = [float(rng.randint(-9, 9)) for _ in range(9)]
    for i in range(3):
        a[4 * i] = float(sum(abs(a[3 * i + j]) for j in range(3) if j != i)
                         + rng.randint(1, 9))
    b = [float(rng.randint(-50, 50)) for _ in range(3)]
    return a, b


# ------------------------------------------------------------------ edits


EDIT_BLOCK = 15


def edit(seed, index):
    """Edit `index` of the edit_loop sequence.

    Edits come in blocks of 15: five of each size, so each size is a
    third of the edits, and one defect per size, so one edit in five is
    defective. The order within a block is the same for every seed, so
    seeds vary the designs' values, not the mix of work.
    """
    block, pos = divmod(index, EDIT_BLOCK)
    slots = [(size, k == 0) for size in EDIT_SIZES for k in range(5)]
    random.Random("edit-layout").shuffle(slots)
    size, defective = slots[pos]
    r = rng_for(seed, "edit", index)
    defect = None
    defect_at = None
    if defective:
        defect = DEFECTS[(index + block) % len(DEFECTS)]
        defect_at = (r.randint(1, size), r.randrange(size))
    coeffs = alphas(r, size)
    return {
        "size": size,
        "alphas": coeffs,
        "defect": defect,
        "design": heat_design(size, size, EDIT_CELLS, coeffs, defect, defect_at),
        "machine": fixed_machine("edit"),
        "rod": rod(r, size * EDIT_CELLS),
    }


# ---------------------------------------------------------------- serving


class ServeMix:
    """Request lines for serve_mix, all derived from one seed.

    Uploaded: lu, h32 (heat 32x32x4), h64 (heat 64x64x4), layered (4096
    tasks) and machine m0. `hot` holds the requests repeats draw from;
    `fresh(i)` is fresh request i. Each request is a dict with the wire
    line plus what the checker needs to verify the response.
    """

    UPLOADS = ("lu", "h32", "h64", "layered")

    def __init__(self, seed):
        self.seed = seed
        r = rng_for(seed, "serve", "setup")
        self.sizes = {"h32": 32, "h64": 64}
        self.alphas = {k: alphas(r, n) for k, n in self.sizes.items()}
        self.designs = {
            "lu": lu_design(),
            "h32": heat_design(32, 32, 4, self.alphas["h32"]),
            "h64": heat_design(64, 64, 4, self.alphas["h64"]),
            "layered": layered_design(),
        }
        self.machine = fixed_machine("m0")
        self.hot = self._hot(r)

    def upload_lines(self):
        lines = [{"id": "up-" + k, "op": "upload", "name": k, "kind": "design",
                  "text": self.designs[k]} for k in self.UPLOADS]
        lines.append({"id": "up-m0", "op": "upload", "name": "m0",
                      "kind": "machine", "text": self.machine})
        return [json.dumps(x, separators=(",", ":")) for x in lines]

    def _req(self, rid, kind, body, **check):
        body = dict(body, id=rid)
        return dict(check, id=rid, kind=kind,
                    line=json.dumps(body, separators=(",", ":")))

    def _trial(self, rid, r, target, inline):
        design = ({"design": self.designs[target]} if inline
                  else {"design_ref": target})
        if target == "lu":
            a, b = lu_system(r)
            return self._req(rid, "trial", dict(design, op="trial",
                                                inputs={"A": vec(a), "b": vec(b)}),
                             design=target, A=a, b=b)
        n = self.sizes[target]
        values = rod(r, n * 4)
        return self._req(rid, "trial", dict(design, op="trial",
                                            inputs={"rod": vec(values)}),
                         design=target, rod=values)

    def _schedule(self, rid, target, scheduler, machine_text, inline):
        design = ({"design": self.designs[target]} if inline
                  else {"design_ref": target})
        mach = ({"machine": machine_text} if machine_text is not None
                else {"machine_ref": "m0"})
        return self._req(rid, "schedule", dict(design, **mach, op="schedule",
                                               scheduler=scheduler),
                         design=target, scheduler=scheduler,
                         machine=machine_text if machine_text is not None
                         else self.machine)

    def _check(self, rid, text, label, ref_name=None):
        design = {"design_ref": ref_name} if ref_name else {"design": text}
        return self._req(rid, "check", dict(design, op="check", file=label),
                         text=text, label=label)

    def _hot(self, r):
        """Requests sent once in warm-up; repeats replay them verbatim.
        The first four carry the design inline, the last four by name."""
        return [
            self._trial("hot-lu", r, "lu", True),
            self._trial("hot-h32", r, "h32", True),
            self._schedule("hot-h32-etf", "h32", "etf", None, True),
            self._check("hot-check", self.designs["h32"], "h32.pitl"),
            self._trial("hot-h64", r, "h64", False),
            self._schedule("hot-layered-dsh", "layered", "dsh", None, False),
            self._schedule("hot-h64-mh", "h64", "mh", None, False),
            self._check("hot-check-ref", self.designs["h32"], "h32.pitl", "h32"),
        ]

    # One block of BLOCK requests holds every kind in its exact share, in
    # an order that is the same for every seed: seeds vary values (trial
    # and stream inputs, edited coefficients), not the mix of work.
    BLOCK = 40
    # (design, scheduler, topology, message start-up, bandwidth) of the
    # eight fresh-machine schedules in a block.
    SCHEDULES = (("layered", "dsh", "hypercube dim=3", 0.05, 1024),
                 ("layered", "etf", "mesh rows=2 cols=4", 0.02, 512),
                 ("layered", "mh", "ring procs=8", 0.1, 4096),
                 ("layered", "dsh", "torus rows=2 cols=3", 0.01, 256),
                 ("h64", "mh", "full procs=6", 0.05, 512),
                 ("h64", "etf", "tree arity=2 procs=7", 0.02, 1024),
                 ("h32", "dsh", "star procs=6", 0.1, 1024),
                 ("h32", "mh", "hypercube dim=3", 0.01, 4096))
    KINDS = (["repeat"] * 16 + ["trial:lu"] * 4 + ["trial:h32"] * 3
             + ["trial:h64"] * 3
             + ["schedule:%d" % k for k in range(len(SCHEDULES))]
             + ["check"] * 4 + ["stream"] * 2)
    random.Random("serve-layout").shuffle(KINDS)

    def fresh(self, i):
        """Fresh request i. Per block of 40: 16 repeats (each hot request
        twice, so half inline and half by name), 10 trials with fresh
        inputs, 8 schedules on a fresh machine (mh, etf, dsh), 4 checks
        of a freshly edited design sent inline, 2 streams of 3 fresh
        batches."""
        pos = i % self.BLOCK
        kind = self.KINDS[pos]
        r = rng_for(self.seed, "serve", "req", i)
        rid = "r%d" % i
        if kind == "repeat":
            nth = self.KINDS[:pos].count("repeat")
            src = self.hot[nth % len(self.hot)]
            body = json.loads(src["line"])
            body["id"] = rid
            return dict(src, id=rid, repeat_of=src["id"],
                        line=json.dumps(body, separators=(",", ":")))
        if kind.startswith("trial:"):
            return self._trial(rid, r, kind.split(":")[1], False)
        if kind.startswith("schedule:"):
            target, scheduler, *link = self.SCHEDULES[int(kind.split(":")[1])]
            return self._schedule(rid, target, scheduler,
                                  machine("m%d" % (i + 1), *link), False)
        if kind == "check":
            return self._check(rid, heat_design(32, 32, 4, alphas(r, 32)),
                               "chk%d.pitl" % i)
        batches = [lu_system(r) for _ in range(3)]
        body = {"op": "stream", "design_ref": "lu", "machine_ref": "m0",
                "inputs_stream": [{"A": vec(a), "b": vec(b)} for a, b in batches]}
        return self._req(rid, "stream", body, design="lu", batches=batches)
