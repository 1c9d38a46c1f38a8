"""Kloosterman and Gauss sums over arbitrary moduli, weighted bilinear
forms with independent evaluation paths, exact congruence-solution
counting, and an empirical bound-measurement harness."""

from .bilinear import (
    CharWeightVector,
    Interval,
    WeightVector,
    bilinear_gauss,
    bilinear_kloosterman,
    dyadic_scale,
    make_weights,
)
from .bounds import (
    BOUND_NAMES,
    REGION_VERTICES,
    BoundSpec,
    bound_value,
    improvement_region,
    region_slacks,
)
from .counting import (
    CountTable,
    dyadic_average,
    j2_reference_ratio,
    j2_reference_ratios,
    jr_congruence,
    jr_equation,
    moment_check,
    product_table,
    reciprocal_table,
    rr_congruence,
    rr_equation,
)
from .csvio import CSV_HEADER, emit_csv, parse_csv, render_csv
from .errors import (
    ConfigError,
    DomainRestriction,
    InvalidWeight,
    KgsumsError,
    ModulusMismatch,
    NotAUnit,
    ResourceLimit,
    VerificationError,
)
from .experiments import (
    ExperimentRecord,
    average_sweep,
    build_char_weight_vector,
    build_weight_vector,
    exceptional_budget,
    max_kloosterman_abs,
    run_experiment,
    run_experiments,
)
from .expsums import (
    SumResult,
    char_values,
    character,
    character_at,
    characters,
    conductors,
    gauss,
    gauss_row,
    kloosterman,
    kloosterman_row,
    primitive_characters,
    primitive_count,
)
from .modmath import (
    MACHINE_EPS,
    Modulus,
    UnitGroupComponent,
    UnitGroupStructure,
    eq_exp,
    factorize,
    inverse_table,
    mod_inv,
    unit_group,
    unit_mask,
    unit_residues,
)
from .prng import SplitMix64, derive_seed, splitmix64_block

__version__ = "0.1.0"
