"""The library's tolerances, each defined once.

A leaf module: it imports nothing, so expr, enclose and every layer
above them can read it.
"""

# when two levels or two abscissas count as one: membership values snap
# to 0, 1 and a branch's level, jumps, junctions and the support and
# core ends are told apart, a level derivative of magnitude 1/TOL or
# more is a zero membership slope, and the regular_intervals proof
# keeps its pieces 2*TOL away from every junction level
TOL = 1e-9

# largest difference of one-sided membership slopes that is not a kink
TOL_SLOPE = 1e-6

# slack of the representation conditions that validate checks, and the
# default of the CLI's validate --tol
LEVEL_TOL = 1e-12

# halvings allowed per bisection, in membership scans and inv solves
BISECT_STEPS = 200

# slack on a rounded turn count theta/pi or theta/tau, when a trig
# argument range is matched to a monotone half period or an extremum
TURN_SLACK = 1e-9
