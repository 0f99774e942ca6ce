"""Draw the fit-samples pool with numpy, in a child process.

Reads {"seed": s, "design": [[a, b, n], ...], "out": path} as JSON on
stdin and writes every sample's n float64 values, in design order, to
`path`.  Sample k comes from numpy's PCG64 seeded with (s, k); a value
that rounds to 0 or 1 is drawn again.

    echo '{"seed": 1, "design": [[2, 30, 100]], "out": "s.f64"}' \
        | python bench/gen_samples.py
"""

import json
import sys

import numpy as np


def main():
    spec = json.load(sys.stdin)
    with open(spec["out"], "wb") as out:
        for k, (a, b, n) in enumerate(spec["design"]):
            rng = np.random.default_rng([spec["seed"], k])
            x = rng.beta(a, b, n)
            bad = (x <= 0.0) | (x >= 1.0)
            while bad.any():
                x[bad] = rng.beta(a, b, int(bad.sum()))
                bad = (x <= 0.0) | (x >= 1.0)
            out.write(x.astype("<f8").tobytes())


if __name__ == "__main__":
    main()
