"""kinreg: a desk-scale laboratory for boundary regularity of kinetic
Fokker-Planck equations with specular reflection.

Modules cover the kinetic geometry (group, cylinders, distance),
exact polynomial calculus, self-contained special functions, the explicit
Tricomi obstruction solution, the constructive half-space Liouville
classification, a half-strip finite-difference solver, an empirical
regularity probe, and the curved-boundary obstruction condition.
"""

__version__ = "0.1.0"
