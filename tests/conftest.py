import numpy as np
import pytest

import compoplab as C


def integer_pair_count(a_exp, b_exp, n):
    """Pairs with ceil(j^(1/A)) + ceil(k^(1/B)) <= n-1, counted by their
    multiplicities floor(p^A) - floor((p-1)^A) in a loop over integers: the
    float-free form of the extremal pair count nu_n."""
    cnt_a = np.diff(np.floor(np.arange(0, n, dtype=float) ** a_exp).astype(int))
    cnt_b = np.diff(np.floor(np.arange(0, n, dtype=float) ** b_exp).astype(int))
    return sum(
        int(cnt_a[p - 1]) * int(cnt_b[q - 1])
        for p in range(1, n)
        for q in range(1, n)
        if p + q <= n - 1
    )


def supermultiplicativity_gaps(merged, s, t, n_max=20):
    """Index pairs (n, m), both at most n_max, with a_nm(merged) < s_n t_m:
    none when the merge of s and t is supermultiplicative there."""
    return [
        (n, m)
        for n in range(1, n_max + 1)
        for m in range(1, n_max + 1)
        if merged.a(n * m) < s[n - 1] * t[m - 1]
    ]


@pytest.fixture(scope="session")
def roster():
    return C.shipped_symbols()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)
