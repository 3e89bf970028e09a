"""Time the primitives of the ROADMAP item-1 table directly, untraced.

    python3 perfbench/roadmap.py

Prints one JSON object: for each row, the median over ``REPEATS`` calls
in milliseconds, next to the value the ROADMAP table gives. all.py runs
it with the benchmark's environment when it records a baseline.
"""

import json
import statistics
import time

import numpy as np

from invarkit import hbf, pooling, signals

# Row -> the ROADMAP figure in milliseconds.
ROADMAP_MS = {
    "layer_forward_mex_d64_T16_B8": 9.9,
    "invariance_gap_mex_d64_T16_B8": 618.0,
    "hbf_step_N200_n10": 0.0985,
}
REPEATS = 5


def _median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def measure() -> dict:
    rng = np.random.default_rng(0)
    d = 64
    templates = tuple(signals.normalize(rng.standard_normal(d)) for _ in range(16))
    layer = pooling.HWLayer(
        templates, tuple(np.linspace(-0.2, 0.2, 8)), signals.cyclic_group(d),
        pooling.PoolingSpec("mex", xi=2.0),
    )
    x = signals.normalize(rng.standard_normal(d))

    # The joint arm of the sin task, 500 steps, timed per step.
    N, n, steps = 200, 10, 500
    X = np.linspace(0.0, 2.0 * np.pi, N)[:, None]
    data = hbf.TrainingSet(X, np.sin(X).ravel())
    centers = hbf.init_centers(data, n, seed=7)
    start = hbf.HBFModel(centers=centers, coeffs=np.zeros(n), sigma=0.5)
    config = hbf.TrainConfig(omega=1e-3, max_iters=steps, grad_tol=1e-12, seed=7)

    measured = {
        "layer_forward_mex_d64_T16_B8": _median_ms(
            lambda: pooling.layer_forward(x, layer), 20 * REPEATS),
        "invariance_gap_mex_d64_T16_B8": _median_ms(
            lambda: pooling.invariance_gap(x, layer), REPEATS),
        "hbf_step_N200_n10": _median_ms(
            lambda: hbf.train(start, data, config), REPEATS) / steps,
    }
    return {
        row: {"measured_ms": measured[row], "roadmap_ms": ROADMAP_MS[row],
              "ratio": measured[row] / ROADMAP_MS[row]}
        for row in ROADMAP_MS
    }


if __name__ == "__main__":
    print(json.dumps(measure()))
