"""Literal input sets that once exposed a fault, shared by several test modules."""

#: Eleven contexts whose restricted likelihood peaks at tau2 = 0.0033979816,
#: slope 0.0588366543 (``oracles.reml_profile_grid``). A REML iteration
#: stopped by an absolute 1e-12 step tolerance cycles around that peak
#: without converging.
ELEVEN_CONTEXT_SUMMARY_CSV = """\
context,bx,bx_se,by,by_se,xmean,n
c1,1,0.01,0.6889,0.1019,9.619,1000
c2,1,0.01,0.6913,0.1972,8.938,1000
c3,1,0.01,0.5830,0.0291,8.496,1000
c4,1,0.01,0.5359,0.2002,8.768,1000
c5,1,0.01,0.6440,0.1952,8.269,1000
c6,1,0.01,0.7958,0.1090,8.863,1000
c7,1,0.01,0.5292,0.1760,8.949,1000
c8,1,0.01,0.8640,0.1764,9.060,1000
c9,1,0.01,0.4856,0.2219,8.478,1000
c10,1,0.01,0.7151,0.0795,8.461,1000
c11,1,0.01,0.7358,0.0835,8.422,1000
"""
