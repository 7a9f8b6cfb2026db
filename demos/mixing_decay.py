"""How fast does a network forget where information started?

Builds a few weight schedules, measures how far the backward products of
their mixing matrices are from perfect averaging, and fits a geometric
envelope to that distance.
The decay rate is what ultimately lets scattered binary readings behave
like one shared data stream.

The two static schedules here have exactly symmetric Metropolis matrices
whose rows sum to 1 within rounding, so their profiles come from one
eigenvalue each: the distance at lag t is rho(W - J)^(t+1).  The tolerance
is n ulps, because rows summing to 1 + d would add a component growing
like t d along the all-ones vector that the power leaves out.  The
partitioned ring is periodic and takes the backward product.
"""

import numpy as np

from binident import (
    TopologySchedule,
    deviation_profile,
    fit_geometric_envelope,
    generate_poisson_graph,
    metropolis_weights,
    partitioned_ring_schedule,
    ring_graph,
)


def show(name, sched, max_lag=40):
    prof = deviation_profile(sched, s=1, max_lag=max_lag)
    fit = fit_geometric_envelope(prof)
    print(f"{name}")
    print(f"  rate {fit.rho:.4f}  R^2 {fit.r_squared:.5f}  envelope c {fit.c:.3f}")
    for lag in (0, 5, 10, 20, max_lag):
        print(f"  lag {lag:>3}: deviation {prof[lag]:.3e}  envelope {fit.envelope(lag):.3e}")
    print()


def main():
    g = ring_graph(10)
    show("ring of 10, Metropolis weights", TopologySchedule.static(g, metropolis_weights(g)))

    g = generate_poisson_graph(30, p=0.2, rng=7)
    show("random pairwise graph (30 agents, p=0.2)", TopologySchedule.static(g, metropolis_weights(g)))

    # time-varying: only a quarter of the ring's links are up at any step,
    # yet the union over each 4-step window is the full ring
    sched = partitioned_ring_schedule(12, period=4, weight_fn=metropolis_weights)
    show("partitioned ring of 12, period 4", sched, max_lag=60)


if __name__ == "__main__":
    main()
