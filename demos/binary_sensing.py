"""One agent, one bit per measurement.

The sensor never reports y, only whether y fell below a threshold that the
agent itself controls. This script shows why that is enough: the expected
correction pulls toward the true parameter from every direction, and its
unique zero is the true parameter itself.
"""

import numpy as np

from binident import (
    GaussianNoise,
    ModelStreams,
    RegressionContext,
    SparseUniformRegressors,
    SystemModel,
    regression_function,
    solve_root,
)

STAR = np.array([0.5, -0.4, 0.3, -0.35])


def main():
    model = SystemModel(STAR, SparseUniformRegressors(4), GaussianNoise(0.01), 4)

    # peek at the raw channel: threshold at the current guess, read one bit
    streams = ModelStreams(model, 2024)
    guess = np.zeros(4)
    print("first five readings of agent 1 (guess fixed at zero):")
    for k in range(1, 6):
        phi = streams.phi_step(k)
        d = streams.noise_step()
        y = phi.outputs(model.theta_star, d)
        c = phi.thresholds(np.zeros((4, 4)))
        bit = int(y[0] < c[0])
        print(f"  k={k}: y_1 = {y[0]:+.4f}  ->  bit {bit}")
    print()

    ctx = RegressionContext(model)
    print("averaged correction field f along coordinate 1 (others at truth):")
    for v in (-1.0, 0.0, 0.25, 0.5, 0.75, 1.5):
        theta = STAR.copy()
        theta[0] = v
        f = regression_function(ctx, theta)
        print(f"  theta_1 = {v:+.2f}: f_1 = {f[0]:+.6f}")
    print("sign flips exactly at theta_1 = 0.5, the true value")
    print()

    found = solve_root(ctx, theta_init=np.zeros(4))
    print(f"root of f found from zeros: {found}")
    print(f"true parameter:             {STAR}")
    print(f"distance: {np.linalg.norm(found - STAR):.2e}")


if __name__ == "__main__":
    main()
