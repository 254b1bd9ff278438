"""Show that hard thresholds can leave no approximate solution on the grid.

Swap the crossed-thresholds election to the discontinuous hard-threshold
notion and the best-response map starts jumping between branches: simple
iteration falls into a two-cycle, and an exhaustive scan of the rational
grid shows no grid point gets its residual below 0.01.  The scan rules out
grid points only; it proves nothing about the matrices between them.
"""

from liquidballots import (
    Notion,
    SolverConfig,
    fixtures,
    grid_oracle,
    initial_point,
    simple_iteration,
)


def main():
    instance = fixtures.crossed_thresholds(Notion.EP_T)

    report = simple_iteration(
        instance, initial_point(instance), SolverConfig(tolerance=1e-3, max_iterations=2000)
    )
    print(f"iteration: {report.status}, best residual {report.residual_linf}")
    print("tail of the residual trace:", [t[1] for t in report.trajectory[-4:]])

    print("\nscanning every grid matrix at resolution 0.01 ...")
    result = grid_oracle(instance, SolverConfig(tolerance=0.01, grid_resolution=0.01))
    print(f"points scanned: {result.points}")
    print(f"points with residual <= 0.01: {len(result.hits)}")
    print(f"smallest residual anywhere on the grid: {result.best_residual:.6f}")
    print("attained at:\n", result.best)
    print("\nso no grid point is a 0.01-weak approximate solution (points off")
    print("the grid are not covered);")
    print("the same election under EP-TI solves to residual ~1e-13")


if __name__ == "__main__":
    main()
