"""Seeded program generator and host-side oracle for the monsem benchmark.

Every program text the benchmark submits is built here, together with the
answer it must produce.  Answers and call counts come from closed forms or
from Python models of each family, never from monsem itself.

A program is a dict:
  id        unique name within one manifest
  family    the generator family (fib, tak, ...)
  kind      "lam" (the functional language) or "imp" (the imperative one)
  src       program text
  input     imp only: the integers `read` consumes
  value     expected rendered answer (the value line, or imp's print line)
  calls     expected profiler state as {function: calls} (None for imp)
  light     True for the small size class (interactive runs)
"""

import random
import sys

sys.setrecursionlimit(100000)


def render(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return "[" + ", ".join(render(x) for x in v) + "]"
    return str(v)


def profile_text(calls):
    """The CallProfiler final state as monsem prints it."""
    return "[" + ", ".join(f"{k} -> {calls[k]}" for k in sorted(calls)) + "]"


# --------------------------------------------------------------------------
# Families.  Each returns (src, value, calls).
# --------------------------------------------------------------------------

def fam_fib(n, collect=False):
    base = "{collect:base}: n" if collect else "n"
    src = (f"letrec fib = lambda n. if n < 2 then {base} "
           f"else fib (n - 1) + fib (n - 2) in fib {n}")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    c = [1, 1]
    for i in range(2, n + 1):
        c.append(1 + c[i - 1] + c[i - 2])
    return src, a, {"fib": c[n]}


def fam_tak(x, y, z):
    # Curried three-argument calls: each call builds two partial closures.
    src = ("letrec tak = lambda x y z. if y < x then "
           "tak (tak (x - 1) y z) (tak (y - 1) z x) (tak (z - 1) x y) "
           f"else z in tak {x} {y} {z}")
    memo = {}

    def go(x, y, z):
        k = (x, y, z)
        if k in memo:
            return memo[k]
        if y < x:
            v1, c1 = go(x - 1, y, z)
            v2, c2 = go(y - 1, z, x)
            v3, c3 = go(z - 1, x, y)
            v, c = go(v1, v2, v3)
            r = (v, 1 + c1 + c2 + c3 + c)
        else:
            r = (z, 1)
        memo[k] = r
        return r

    v, c = go(x, y, z)
    return src, v, {"tak": c}


def fam_ack(m, n):
    src = ("letrec ack = lambda m n. if m = 0 then n + 1 "
           "else if n = 0 then ack (m - 1) 1 "
           f"else ack (m - 1) (ack m (n - 1)) in ack {m} {n}")
    memo = {}

    def go(m, n):
        # Iterate over n to keep Python's stack shallow.
        for k in range(0, n + 1):
            if (m, k) in memo:
                continue
            if m == 0:
                memo[(m, k)] = (k + 1, 1)
            elif k == 0:
                v, c = go(m - 1, 1)
                memo[(m, k)] = (v, 1 + c)
            else:
                v1, c1 = memo[(m, k - 1)]
                v, c = go(m - 1, v1)
                memo[(m, k)] = (v, 1 + c1 + c)
        return memo[(m, n)]

    v, c = go(m, n)
    return src, v, {"ack": c}


def fam_down(n):
    src = ("letrec down = lambda n acc. if n = 0 then acc "
           f"else down (n - 1) (acc + n) in down {n} 0")
    return src, n * (n + 1) // 2, {"down": n + 1}


def fam_listsum(n):
    src = ("letrec range = lambda i n. if i > n then [] "
           "else i : range (i + 1) n in "
           "letrec sum = lambda l. if l = [] then 0 "
           f"else hd l + sum (tl l) in sum (range 1 {n})")
    return src, n * (n + 1) // 2, {"range": n + 1, "sum": n + 1}


MSORT_SRC = (
    "letrec merge = lambda a b. if a = [] then b else if b = [] then a "
    "else if hd a <= hd b then hd a : merge (tl a) b "
    "else hd b : merge a (tl b) in "
    "letrec split = lambda l. if l = [] then [[], []] "
    "else if tl l = [] then [l, []] "
    "else let rest = split (tl (tl l)) in "
    "(hd l : hd rest) : (hd (tl l) : hd (tl rest)) : [] in "
    "letrec msort = lambda l. if l = [] then [] else if tl l = [] then l "
    "else let halves = split l in "
    "{demon}merge (msort (hd halves)) (msort (hd (tl halves))) in ")


def fam_msort(xs, demon=False):
    body = MSORT_SRC.replace("{demon}", "{demon:merged}: " if demon else "")
    src = body + "msort " + render(xs)
    calls = {"merge": 0, "split": 0, "msort": 0}

    def merge(a, b):
        out = []
        while True:
            calls["merge"] += 1
            if not a:
                return out + b
            if not b:
                return out + a
            if a[0] <= b[0]:
                out.append(a[0])
                a = a[1:]
            else:
                out.append(b[0])
                b = b[1:]

    def split(l):
        calls["split"] += 1
        if not l:
            return [], []
        if len(l) == 1:
            return l, []
        r0, r1 = split(l[2:])
        return [l[0]] + r0, [l[1]] + r1

    def msort(l):
        calls["msort"] += 1
        if len(l) <= 1:
            return l
        h0, h1 = split(l)
        return merge(msort(h0), msort(h1))

    return src, msort(list(xs)), calls


def fam_qsort(xs):
    src = ("letrec append = lambda a b. if a = [] then b "
           "else hd a : append (tl a) b in "
           "letrec lt = lambda p l. if l = [] then [] "
           "else if hd l < p then hd l : lt p (tl l) else lt p (tl l) in "
           "letrec ge = lambda p l. if l = [] then [] "
           "else if hd l >= p then hd l : ge p (tl l) else ge p (tl l) in "
           "letrec qsort = lambda l. if l = [] then [] "
           "else append (qsort (lt (hd l) (tl l))) "
           "(hd l : qsort (ge (hd l) (tl l))) in qsort " + render(xs))
    calls = {"append": 0, "lt": 0, "ge": 0, "qsort": 0}

    def qs(l):
        calls["qsort"] += 1
        if not l:
            return []
        p, rest = l[0], l[1:]
        calls["lt"] += len(rest) + 1
        calls["ge"] += len(rest) + 1
        lo = qs([x for x in rest if x < p])
        hi = qs([x for x in rest if x >= p])
        calls["append"] += len(lo) + 1
        return lo + [p] + hi

    return src, qs(list(xs)), calls


def fam_primes(n):
    src = ("letrec divides = lambda d n. n % d = 0 in "
           "letrec noneDivide = lambda d n. if d * d > n then true "
           "else if divides d n then false else noneDivide (d + 1) n in "
           "letrec primes = lambda n acc. if n < 2 then acc "
           "else if noneDivide 2 n then primes (n - 1) (n : acc) "
           f"else primes (n - 1) acc in primes {n} []")
    calls = {"divides": 0, "noneDivide": 0, "primes": 0}
    out = []
    for k in range(n, 1, -1):
        calls["primes"] += 1
        d, prime = 2, True
        while True:
            calls["noneDivide"] += 1
            if d * d > k:
                break
            calls["divides"] += 1
            if k % d == 0:
                prime = False
                break
            d += 1
        if prime:
            out.insert(0, k)
    calls["primes"] += 1
    return src, out, calls


def fam_church(a, b):
    src = ("let zero = lambda f x. x in "
           "let succ = lambda n f x. f (n f x) in "
           "let mul = lambda m n f. m (n f) in "
           "let toInt = lambda n. n (lambda k. k + 1) 0 in "
           "letrec num = lambda k. if k = 0 then zero else succ (num (k - 1)) in "
           f"toInt (mul (num {a}) (num {b}))")
    return src, a * b, {"num": a + b + 2}


def fam_imp_sum(n):
    src = ("read n; s := 0;\nwhile n > 0 do\n"
           "  {body}: begin s := s + n; n := n - 1 end\nend;\nprint s")
    return src, [n], f"{n * (n + 1) // 2}\nstore: n = 0; s = {n * (n + 1) // 2};"


# --------------------------------------------------------------------------
# Size classes.  Each slot draws its parameters from a narrow seeded range
# so every seed yields the same mix of work, only different instances.
# --------------------------------------------------------------------------

def rand_list(rng, n):
    return [rng.randrange(0, 1000) for _ in range(n)]


def make(rng, slot):
    """Draws one program for slot = (family, light, (lo, hi)[, extra]).
    Families whose work grows exponentially in their size get a fixed size
    (lo == hi) and a seeded constant added to the answer instead, so every
    instance does the same work."""
    fam, light = slot[0], slot[1]
    r = lambda lo, hi: rng.randint(lo, hi)
    extra = slot[3] if len(slot) > 3 else None
    p = {"family": fam, "light": light, "kind": "lam", "input": []}
    if fam == "fib":
        src, v, c = fam_fib(r(*slot[2]), collect=bool(extra))
    elif fam == "tak":
        x = r(*slot[2])
        src, v, c = fam_tak(x, x * 2 // 3, x // 3)
    elif fam == "ack":
        src, v, c = fam_ack(extra, r(*slot[2]))
    elif fam == "down":
        src, v, c = fam_down(r(*slot[2]))
    elif fam == "listsum":
        src, v, c = fam_listsum(r(*slot[2]))
    elif fam == "msort":
        src, v, c = fam_msort(rand_list(rng, r(*slot[2])), demon=bool(extra))
    elif fam == "qsort":
        src, v, c = fam_qsort(rand_list(rng, r(*slot[2])))
    elif fam == "primes":
        src, v, c = fam_primes(r(*slot[2]))
    elif fam == "church":
        src, v, c = fam_church(r(*slot[2]), r(*slot[2]))
    elif fam == "imp_sum":
        src, inp, out = fam_imp_sum(r(*slot[2]))
        p.update(kind="imp", src=src, input=inp, value=out, calls=None)
        return p
    else:
        raise ValueError(fam)
    if slot[2][0] == slot[2][1] and isinstance(v, int):
        k = rng.randint(1, 999)
        src, v = f"{src} + {k}", v + k
    p.update(src=src, value=render(v), calls=c)
    return p


# monitored/journaled: medium, call-dense (10^5 .. 10^6 steps).
MON_SLOTS = [
    ("fib", False, (17, 17), True), ("tak", False, (11, 11)),
    ("ack", False, (72, 72), 2), ("msort", False, (160, 162), True),
    ("primes", False, (640, 650)), ("listsum", False, (1050, 1050)),
]
# The two smallest programs form the interactive class of the in-process
# workloads.
MON_LIGHT = {"tak", "listsum"}


def program_set(seed, slots, tag):
    rng = random.Random(seed)
    out = []
    for i, slot in enumerate(slots):
        p = make(rng, slot)
        p["id"] = f"{tag}{i:02d}_{p['family']}"
        out.append(p)
    return out
