"""Exact-arithmetic engine for graded bi-Lie infinity structures and the
associated torsion, planarity-order and semi-dilation invariants."""

from .words import (Generator, GradedSpace, Word, EWord, Element, EElement,
                    UNIT_WORD, UNIT_EWORD, normalize_word, normalize_clusters,
                    enumerate_basis)
from .linalg import solve_linear
from .structures import (Bounds, OperationTable, BLAlgebra, BLMorphism,
                         Augmentation, PointedMap, UModule, TRIVIAL_ALGEBRA,
                         apply_hat_p, apply_hat_phi, two_level,
                         check_structure, check_morphism, compose,
                         is_augmentation, f_eps, linearize, linearize_pointed,
                         ell_table, apply_hat_pointed, check_pointed,
                         check_compatibility, identity_table, zero_table)
from .invariants import (TorsionAnswer,
                         torsion, default_schedule, torsion_monotone_check,
                         verify_torsion_certificate, order_O,
                         order_O_tilde, order_functoriality_check,
                         order_multi, order_multi_tilde, sd_order,
                         verify_order_certificate, verify_sd_certificate,
                         planarity, width)
from .hierarchy import (HierarchyValue, hierarchy_classify, hierarchy_compare,
                        hierarchy_combine)
from .ibl import (apply_hat_p_ibl, check_ibl, genus0,
                  torsion_grid, c_map, derive_flat_torsion)
from .io import parse, serialize, Document

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
