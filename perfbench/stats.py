"""Statistics the benchmark reports and compares with.

Kept dependency-free (stdlib only) and covered by test_stats.py:

    python3 perfbench/test_stats.py
"""

import statistics

# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4)."""
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    m = median(values)
    return (q3 - q1) / abs(m) if m else float("inf")


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile that has at least `beyond` samples above it.

    Returns (percentile, value). With n sorted samples that is the
    (n - beyond)-th smallest, i.e. percentile 100 * (n - beyond) / n. Fewer
    than beyond + 1 samples have no such percentile: ValueError.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"{n} samples: no percentile has {beyond} beyond it")
    ordered = sorted(values)
    k = n - beyond
    return 100.0 * k / n, ordered[k - 1]


def windowed_tail(values, window=200, beyond=TAIL_BEYOND):
    """Tail of a long run: the run is cut into consecutive windows of about
    `window` samples (one window when it has fewer), each window's tail is
    taken as in tail(), and the median over windows is reported, so one
    stall on a shared host moves one window, not the result.

    Returns (percentile, value, windows); the percentile is that of the
    first window (all windows but the last have the same size).
    """
    n = len(values)
    k = max(1, n // window)
    size = n // k
    tails = [tail(values[i * size:(i + 1) * size if i < k - 1 else n], beyond)
             for i in range(k)]
    return tails[0][0], median([v for _, v in tails]), k


def worse_by(base, new, better):
    """How much worse `new` is than `base`, as a share of `base` (negative
    when it is better). `better` is "lower" or "higher"."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be lower or higher, not {better!r}")
    if base == 0:
        return 0.0 if new == base else float("inf")
    delta = (new - base) / abs(base)
    return delta if better == "lower" else -delta


def regressed(base_values, new_values, bound, better):
    """True when the median of `new_values` is worse than the median of
    `base_values` by more than `bound` (a share of the base median)."""
    return worse_by(median(base_values), median(new_values), better) > bound
