"""
Why extended formulations matter
=================================

"""

# the same infeasible set, written two ways, behaves very differently
# under outer approximation.  The set: binary points inside a ball that
# touches no corner of the unit cube.  The naive model keeps one
# aggregated ball constraint; the extended model gives each coordinate
# its own epigraph variable before summing
import miconic as mc

print("naive (one aggregated cone):")
print("  n  status      iterations  cuts")
for n in range(2, 6):
    model = mc.instances.empty_ball_model(n, variant="naive")
    program, _ = mc.emit_conic(model)
    res = mc.oa_solve(program)
    print("  %d  %-10s  %10d  %4d" % (n, res.status, res.iterations,
                                      len(res.cuts)))

# a polyhedral approximation of the aggregated ball needs a facet for
# every corner of the cube, so the cut count grows like 2**n

print()
print("extended (one epigraph per coordinate):")
print("  n  status      iterations  cuts")
for n in range(2, 9):
    model = mc.instances.empty_ball_model(n, variant="extended")
    program, _ = mc.emit_conic(model)
    res = mc.oa_solve(program)
    print("  %d  %-10s  %10d  %4d" % (n, res.status, res.iterations,
                                      len(res.cuts)))

# the extended version proves infeasibility in a handful of iterations
# at every size: the per-coordinate cones expose one-dimensional shape
# that cuts can capture exactly
