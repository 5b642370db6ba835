"""Seeded input generator for the serve-mix workload.

`serve_mix(seed, rate, seconds)` is a pure function: the same arguments
give byte-identical output. It returns the job list the benchmark client
submits (texts, kinds, modes, due times) together with each job's
expected outcome, which only run.py sees.

The mix, in fixed shares of every phase so that seeds change the order
and the unique inputs but not the composition:

  pool-sweep     trace-driven sweep decks (8^3-24^3) from a fixed pool of
                 six, so repeats hit the server's plan cache
  unique-sweep   trace-driven sweep decks made for one job, which miss it
  stencil        trace-driven stencil specs, pooled and unique
  fn-stencil     functional stencil specs from a pool of two
  fn-sweep       a few small functional sweeps from a pool of three;
                 repeated inputs must agree bitwise
  invalid        inputs the server must reject, each with a known typed
                 admission reason (parse, lint, grid-budget)

The shares are not taken from recorded traffic; there is none. They
follow one target: the workload measures the server, the plan cache
and the timing model, so functional jobs (the kernel, which paper50
already measures) get at most FUNCTIONAL_TARGET of the service
time. `service_split` applies the per-category costs measured when the
benchmark was added (SERVICE_MS) to a mix; a self-test holds the
functional share of the shares below to the target.

Two phases: `rate` jobs are due open-loop at evenly spaced times, `rate`
jobs/s; `burst` jobs are all due at once (the burst drain). Poisson
arrivals would model independent clients better, but their clustering
moved the median latency by more than the benchmark's bound from seed
to seed.
"""

import random

# Shares of each phase, in this order; the invalid share is what is left.
SHARES = (
    ("pool-sweep", 0.54),
    ("unique-sweep", 0.22),
    ("stencil", 0.12),
    ("fn-stencil", 0.05),
    ("fn-sweep", 0.015),
)
# Mean service time of a job of each category (plan lookup or build plus
# run, SPE-claim wait excluded), ms, over ten seeds on a 4-vCPU Intel
# Xeon virtual machine, gcc 12.2, RelWithDebInfo. Invalid jobs are
# rejected at admission and get no service.
SERVICE_MS = {"pool-sweep": 27.8, "unique-sweep": 32.7, "stencil": 0.46,
              "fn-stencil": 1.5, "fn-sweep": 135.0, "invalid": 0.0}
FUNCTIONAL = ("fn-stencil", "fn-sweep")
FUNCTIONAL_TARGET = 0.10   # most of the service time functional jobs may take
BURST_FRACTION = 1 / 3     # burst jobs per fixed-rate job
RATE_FRACTION = 0.8        # share of the run's seconds the rate phase lasts
MIN_RATE_JOBS = 240        # >= 200 valid jobs: p95 needs 10 samples beyond it


def _mk(n):
    """Largest K-blocking factor <= 10 that divides n."""
    return max(d for d in range(1, 11) if n % d == 0)


def sweep_deck(n, iterations, sigma_t=1.0):
    return (
        f"it {n}  jt {n}  kt {n}\n"
        f"dx 0.04  dy 0.04  dz 0.04\n"
        f"mk {_mk(n)}  mmi 3\n"
        f"sn 6  moments 6\n"
        f"iterations {iterations}  fixup_from {iterations - 1}\n"
        f"material benchmark {sigma_t} 0.5 0.2 0.05 source 1.0\n")


def stencil_spec(n, b, iterations, source=1.0):
    return (f"nx {n}  ny {n}  nz {n}\n"
            f"bx {b}  by {b}  bz {b}\n"
            f"iterations {iterations}\nh 1.0\nsource {source}\n")


# (deck, weight). The two decks that take about 24 ms (16^3 x 3 and
# 20^3 x 2) carry most of the weight, so that they hold the middle of the
# latency distribution: the median is then their latency, and does not
# jump between job sizes when the host's speed changes.
POOL_SWEEPS = tuple((sweep_deck(n, it), w) for n, it, w in
                    ((8, 4, 4), (12, 3, 4), (16, 3, 16), (16, 6, 7),
                     (20, 2, 16), (24, 2, 7)))
POOL_STENCILS = tuple(stencil_spec(n, b, it) for n, b, it in
                      ((16, 8, 4), (24, 8, 4), (32, 8, 4)))
FN_STENCILS = (stencil_spec(16, 8, 4), stencil_spec(24, 8, 2))
FN_SWEEPS = (sweep_deck(10, 2), sweep_deck(12, 3), sweep_deck(16, 2))
# A 1000-cell I-line parses but its chunk staging overflows the 256 KB
# local store, which only the linter checks.
LS_OVERFLOW = sweep_deck(2, 2).replace("it 2 ", "it 1000 ")
INVALID = (
    ("sweep", "reject:parse", "it 8  jt 8  kt 8\nfrobnicate 3\n"),
    ("sweep", "reject:lint", LS_OVERFLOW),
    # 36^3 cells exceed the server's 32^3-cell grid budget (client.cc).
    ("sweep", "reject:grid-budget", sweep_deck(36, 2)),
    ("stencil", "reject:parse", stencil_spec(8, 3, 2)),
)


def _counts(total):
    counts = [(name, int(total * share)) for name, share in SHARES]
    counts.append(("invalid", total - sum(c for _, c in counts)))
    return counts


# What each category draws from. Draws are dealt evenly (every choice
# about equally often in a phase), so seeds move the order and the
# unique texts while the work in a phase stays nearly the same.
CHOICES = {
    "pool-sweep": [("sweep", "trace", "ok", t)
                   for t, w in POOL_SWEEPS for _ in range(w)],
    "unique-sweep": [("unique-sweep", n, it)
                     for n in range(8, 25, 2) for it in (2, 3, 4)],
    "stencil": [("stencil", "trace", "ok", t) for t in POOL_STENCILS] +
               [("unique-stencil", n, b, it)
                for n, b in ((16, 8), (24, 8), (24, 12)) for it in (2, 4)],
    "fn-stencil": [("stencil", "functional", "ok", t) for t in FN_STENCILS],
    "fn-sweep": [("sweep", "functional", "ok", t) for t in FN_SWEEPS],
    "invalid": [(kind, "trace", expect, t) for kind, expect, t in INVALID],
}


def _deal(rng, choices, k):
    """k draws from @p choices, each choice floor(k/n) or ceil(k/n) times."""
    whole, rest = divmod(k, len(choices))
    drawn = list(choices) * whole + rng.sample(choices, rest)
    rng.shuffle(drawn)
    return drawn


def _job(choice, serial):
    """(kind, mode, expect, text) of one dealt choice. A unique input gets a
    cross section (sweep) or source (stencil) no other job has."""
    unique = f"{1.0 + serial * 1e-4:.4f}"
    if choice[0] == "unique-sweep":
        _, n, it = choice
        return "sweep", "trace", "ok", sweep_deck(n, it, sigma_t=unique)
    if choice[0] == "unique-stencil":
        _, n, b, it = choice
        return "stencil", "trace", "ok", stencil_spec(n, b, it, source=unique)
    return choice


def rate_jobs(rate, seconds):
    return max(MIN_RATE_JOBS, round(rate * seconds * RATE_FRACTION))


def serve_mix(seed, rate, seconds):
    """The job list: dicts with idx, phase, due_s, kind, mode, category,
    expect and text."""
    rng = random.Random(f"serve-mix/{seed}")
    n_rate = rate_jobs(rate, seconds)
    jobs = []
    serial = seed * 100000
    for phase, total in (("rate", n_rate),
                         ("burst", round(n_rate * BURST_FRACTION))):
        slots = [(cat, choice) for cat, k in _counts(total)
                 for choice in _deal(rng, CHOICES[cat], k)]
        rng.shuffle(slots)
        t = 0.0
        for cat, choice in slots:
            serial += 1
            kind, mode, expect, text = _job(choice, serial)
            if phase == "rate":
                t += 1.0 / rate
            jobs.append(dict(idx=len(jobs), phase=phase, due_s=t, kind=kind,
                             mode=mode, category=cat, expect=expect, text=text))
    return jobs


def encode(jobs):
    """The client's input file: a header line per job, then its text."""
    out = []
    for j in jobs:
        body = j["text"].encode()
        out.append(f"job {j['idx']} {j['phase']} {j['due_s']!r} {j['kind']} "
                   f"{j['mode']} {len(body)}\n".encode())
        out.append(body)
    return b"".join(out)


def service_split(counts):
    """{category: share of the mix's service time} at SERVICE_MS, for
    {category: job count}."""
    ms = {cat: n * SERVICE_MS[cat] for cat, n in counts.items()}
    total = sum(ms.values())
    return {cat: v / total for cat, v in sorted(ms.items())}


def describe(jobs):
    """The mix as recorded next to the workload: sizes and shares."""
    ok = [j for j in jobs if j["expect"] == "ok"]
    texts = [j["text"] for j in ok]
    repeats = len(texts) - len(set(texts))
    cats = {}
    for j in jobs:
        cats[j["category"]] = cats.get(j["category"], 0) + 1
    return {
        "jobs": len(jobs),
        "rate_jobs": sum(j["phase"] == "rate" for j in jobs),
        "burst_jobs": sum(j["phase"] == "burst" for j in jobs),
        "categories": dict(sorted(cats.items())),
        "service_split": service_split(cats),
        "repeat_share": repeats / len(ok),
        "invalid_share": cats.get("invalid", 0) / len(jobs),
        "rate_span_s": max(j["due_s"] for j in jobs),
    }
