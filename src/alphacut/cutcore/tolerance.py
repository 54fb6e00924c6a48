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

# largest difference of one-sided membership slopes that is not a kink,
# and largest slope a two-generator smoother's generator may have where
# it must be flat
TOL_SLOPE = 1e-6

# largest sampled derivative against a segment's monotonicity tag that
# check_mono forgives, relative to the value's magnitude (at least 1)
MONO_SLACK = 1e-9

# least descent a generator must show at each sampled level to count as
# strictly decreasing
MIN_DESCENT = 1e-12

# slack of the representation conditions that validate checks, and the
# default of the CLI's validate --tol
LEVEL_TOL = 1e-12

# halvings allowed per bisection, in membership scans and inv solves
BISECT_STEPS = 200

# abscissa bracket width at which an inv solve stops halving
INV_XTOL = 1e-12

# share of a piece's abscissa span near either end within which a
# parabola vertex counts as the end, not as inside the piece
VERTEX_SLACK = 1e-12

# absolute slack when approximate compares a step's sup distance with
# its bound or with the previous step's distance, on top of their gaps
DIST_SLACK = 1e-12

# slack when a step's Lipschitz estimate is compared with its bound k_w/p
LIP_SLACK = 1e-6

# slack on a rounded turn count theta/pi or theta/tau, when a trig
# argument range is matched to a monotone half period or an extremum
TURN_SLACK = 1e-9
