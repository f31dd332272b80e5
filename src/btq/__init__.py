"""Exact computations in the affine building of PGL_d(F_q((1/t))) modulo PGL_d(F_q[t]).

Modules:
    gf        -- prime-field checks, inverses and q-counting functions
    laurent   -- Laurent polynomials and matrices over F_q, the lattice substrate
    building  -- vertices of the full building: normal forms, neighbors, BFS
    domain    -- the fundamental domain: labels, stabilizers, reduction
    quotient  -- the weighted quotient graph with exact edge data
    hecke     -- weighted adjacency operators, covolume, eigenvector recursions
    cli       -- the `btq` command line
"""

__version__ = "0.1.0"
