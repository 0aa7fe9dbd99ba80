"""Equilibrium states of the Toeplitz algebra of N^x |x Z, and the
number-theoretic asymptotics that pin down their uniqueness.

Subpackages by concern:

* :mod:`affkms.arith` - exact arithmetic functions and special sums,
* :mod:`affkms.algebra` - spanning monomials V_a U^k V_b^* and projections,
* :mod:`affkms.measures` - atomic measures on roots of unity, the
  subconformality operators, extremal measures, decomposition,
* :mod:`affkms.states` - every equilibrium functional, symmetry and
  quotient actions, convergence probes,
* :mod:`affkms.asymptotics` - smooth counting, Dickman, Mertens, the
  vanishing-sum machinery,
* :mod:`affkms.cli` - the command-line surface (``affkms``).
"""

__version__ = "0.1.0"

from .arith import (  # noqa: F401
    Factorization,
    PrimeSet,
    RangeError,
    divisors,
    factorize,
    hurwitz_zeta,
    mobius,
    mobius_invert,
    partial_zeta,
    residue_weights,
    smooth_numbers,
    totient,
    totient_beta,
    zeta,
)
from .algebra import (  # noqa: F401
    AlgebraElement,
    Monomial,
    SpectrumPoint,
    adjoint,
    mono_mul,
    projection_eF,
    projection_eab,
    sigma_ibeta_factor,
    spectra_project,
)
from .measures import (  # noqa: F401
    AtomicMeasure,
    NotOrbitInvariantError,
    NotSubconformalError,
    RootOfUnity,
    apply_A,
    apply_A_inv,
    check_subconformal,
    decompose,
    dirac,
    epsilon,
    extremal_measure,
    fourier,
    pushforward,
    restrict,
    root,
    t_beta,
    t_beta_exact_root,
    tv_distance,
)
from .states import (  # noqa: F401
    FiniteN,
    FromMeasure,
    LebesgueInf,
    LowTemp,
    QZChar,
    QZMonomial,
    QZSubgroup,
    Quotient,
    QuotientChar,
    apply_kappa,
    eval_element,
    eval_state,
    kms_residual,
    limit_beta1,
    qz_coherence,
    reconstruct_check,
    subconformal_witness_value,
    superposition_check,
    weak_star_gap,
)
from .asymptotics import (  # noqa: F401
    DickmanGrid,
    SequenceSpec,
    delta_estimate,
    density_sum,
    dickman,
    dickman_grid,
    dickman_mass,
    mertens_product,
    psi_count,
    psi_count_table,
    psi_counts,
    smooth_harmonic_sum,
    wiener_sum,
)
