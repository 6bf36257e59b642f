"""Exact computation of packet groups of torus covers from lattice data.

The package computes, from a rank, a finite group of lattice
automorphisms (inertia generators plus a Frobenius lift), a residue size
q, a cover degree n, and an invariant quadratic form, the finite abelian
packet group attached to the cover, together with all intermediate
objects: fixed and annihilator lattices, residue-level invariant point
groups and their images, Frobenius-module cohomology with tame inertia,
and tame Hilbert symbols.  Every main-path computation has an
element-by-element brute-force oracle for cross-checking.
"""

from .cohomology import (CountingReport, ExactnessError, FrobModule, ModuleError,
                         NotInH0, ShortExactSequence, TameCohomology, TameModule,
                         connecting, counting_checks, dual_module,
                         exactness_failures, h0_h1, image_of_connecting,
                         residue_sharp_sequence, tame_h, tate_twist)
from .datum import (ConfigError, CoverDatum, DatumError, DeterminantError,
                    FormNotInvariant, GroupNotFinite, InertiaNotNormalized,
                    NotPrimePower, RamificationGcdError, RootsOfUnityError,
                    conjugated_config, validate)
from .linalg import (FinAbGroup, LatticeError, Mat, Sublattice, kernel_lattice,
                     preimage_mod, quotient_invariants)
from .residue import (ContainmentViolation, LevelError, LevelGroup,
                      NTorsionViolation, NotStabilized, StabilizationPolicy,
                      invariant_points, iota_image, packet_group,
                      packet_group_level)
from .sharp import fixed_lattice, radical_of_induced_form, y_gamma_sharp, y_sharp
from .symbols import (SplitCenterReport, SymbolError, TameElt, TameField,
                      commutator, hilbert, split_center_image)

__version__ = "0.1.0"
