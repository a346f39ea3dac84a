"""liftfg: lift factor graphs with unknown factors and run inference on the result."""

from .model import (FactorGraph, Factor, PotentialTable, RandomVariable,
                    ParseError, parse_model, serialize_model, validate)
from .cp import (ColourAssignment, Partition, LiftedModel, SuperVar, SuperFactor,
                 argument_symmetry_classes, canonical_form, initial_colours, cp_round, run_cp,
                 compress, singleton_partition, serialize_lifted)
from .lifg import (NeighbourhoodSignature, CandidateSet, LiftReport, LiftResult,
                   all_signatures, select_candidates, transfer_potentials, run_lifg)
from .inference import (Marginal, joint_enumeration, variable_elimination,
                        loopy_bp, counting_bp, kl_divergence)
from .benchgen import (GenParams, BenchRecord, Cohorts, RemovalResult,
                       generate_instance, remove_potentials, run_benchmark)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
