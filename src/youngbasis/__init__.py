"""Exact transition matrices between Young's natural, seminormal, and
orthogonal bases for symmetric groups, Iwahori-Hecke algebras of types
A and B, Ariki-Koike algebras, affine Hecke modules on placed shapes,
and wreath products of a cyclic group with a symmetric group.
"""

from .algebras import (AlgebraSpec, FAMILIES, WeightScheme, generators,
                       natural_generator, seminormal_generator,
                       verify_relations, x_generator, zeroth_generator)
from .bruhat import BruhatGraph, Path, shortest_paths_from, to_dot
from .errors import (DegenerateWeightError, FieldMismatchError,
                     InvariantError, NonSemisimpleError, PoleError,
                     PreconditionError, ShapeParseError, YoungBasisError)
from .fields import (Cyclo, CyclotomicField, Fraction, QFIELD, QRat,
                     QRationalField, RATIONALS, RationalField,
                     check_semisimple, evaluate_q, field_by_name,
                     field_of, quantum_integer)
from .linalg import (Matrix, matmul, matrix_from_json, matrix_to_csv,
                     matrix_to_json, triangular_inverse)
from .shapes import (Shape, Tableau, all_partitions, all_skew_shapes,
                     parse_shape, shape_from_parts, standard_tableaux)
from .transition import (OpCounter, TransitionMatrix, bench_transition,
                         check_structure, diagonal_closed_form,
                         grn_transition, orthogonal_diag_squared,
                         transition_pathsum, transition_recursive,
                         transition_word)
from .weights import q_axial_weight, weighted_content

__version__ = "0.1.0"
