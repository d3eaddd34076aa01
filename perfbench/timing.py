"""Reference-normalised timing.

On the small shared VMs this benchmark was built on, the speed of plain
Python changes by up to a fifth from one second to the next, so raw wall
times of a fixed list of operations do not repeat.  Every interval the
benchmark reports is therefore rescaled by the speed of a fixed pure-Python
reference loop measured around it:

    normalised = wall * R / r

r is the mean duration of the reference loop timed just before and just
after the interval, and, for an interval long enough to hold them, of the
loops an interval timer runs inside it (see worker.py).  R is the loop's
median duration on the machine the benchmark was tuned on, so normalised
figures read as seconds of that machine.

This module imports nothing, so that the import probe can time the import
of the program without the probe's own imports being counted.
"""

REF_ITERATIONS = 1000
# Median duration of reference_loop() over 3000 runs on the 2-core x86-64
# VM the benchmark was tuned on (CPython 3.11.7); see README.md.
R_SECONDS = 0.00032


def reference_loop(n=REF_ITERATIONS):
    """Fixed interpreter work: integer arithmetic, dict and list updates,
    a sort.  It does not touch the program under test."""
    total = 0
    table = {}
    items = []
    for i in range(n):
        v = (i * 2654435761) % 1000003
        table[v & 1023] = v
        items.append(v)
        total += v // 7
    items.sort()
    return total + len(table) + items[n // 2]


def normalise(wall, ref):
    """Wall seconds rescaled to the speed of the reference machine, given
    the mean reference-loop duration ``ref`` measured around them."""
    return wall * R_SECONDS / ref


def mean_ref(before, after, inside=()):
    """r for one interval: the loops just before and after it and those
    sampled inside it, weighted alike."""
    return (before + after + sum(inside)) / (2 + len(inside))
