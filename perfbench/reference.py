"""A fixed reference computation that measures the machine's momentary speed.

On a shared machine the speed of a fixed CPU loop can swing by up to 2x,
in spells that last from a fraction of a second to minutes, and a whole
run can fall into a slow spell.  The worker times `sample()` before
every op and, on a CPU-time timer, every SAMPLE_EVERY_S during long
ops; the benchmark reports each op's time scaled to the speed at which
one repetition takes REF_S seconds, so that runs made in fast and slow
spells compare.  The computation is small integer matrix products in
pure Python, like the program's own inner loops, and uses no code of
the program, so a change to the program cannot change it.
"""

from time import perf_counter

# Median time of one repetition on a 2-core Intel Xeon at 2.0 GHz,
# Python 3.11.7.
REF_S = 0.0003
SAMPLE_EVERY_S = 0.05

_M = [[(7 * i + 3 * j) % 19 - 9 for j in range(7)] for i in range(7)]


def _products():
    out = _M
    for _ in range(4):
        out = [[sum(x * y for x, y in zip(r, c)) for c in zip(*_M)] for r in out]
    return len(str(out))


def sample(reps=1):
    """Wall time of one repetition of the reference work, averaged over `reps`."""
    t0 = perf_counter()
    for _ in range(reps):
        _products()
    return (perf_counter() - t0) / reps
