"""Deliberately naive allocators: the period-by-period reference that the
closed-form allocation and the forced counterfactual map are checked against.

They re-sort the waiting units every period in plain Python and share no
code with the package.
"""

import numpy as np


def naive_allocate_strict(s, ranks, queues, budgets):
    n = len(s)
    served = {}
    for t, b in enumerate(budgets, start=1):
        waiting = [i for i in range(n) if s[i] <= t and i not in served]
        waiting.sort(key=lambda i: (queues[i], ranks[i]))
        for i in waiting[: int(b)]:
            served[i] = t
    out = np.zeros(n, dtype=int)
    for i, t in served.items():
        out[i] = t
    return out


def naive_allocate_rationed(s, ranks, queues, shares):
    n = len(s)
    served = {}
    for t in range(1, shares.shape[0] + 1):
        for q in range(1, shares.shape[1] + 1):
            waiting = [
                i for i in range(n) if s[i] <= t and i not in served and queues[i] == q
            ]
            waiting.sort(key=lambda i: ranks[i])
            for i in waiting[: int(shares[t - 1, q - 1])]:
                served[i] = t
    out = np.zeros(n, dtype=int)
    for i, t in served.items():
        out[i] = t
    return out
