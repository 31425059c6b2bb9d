"""Desk-scale workbench for powerdomains presented as functionals.

Finite posets stand in for dcpos (monotone = continuous there), predicates
take values in a finite observation algebra or in the exact extended
nonnegative rationals, and the package enumerates, constructs and
property-checks the functional presentations of the angelic, demonic,
probabilistic and mixed powerdomains together with the continuation-style
monad structure underneath them.
"""

from .errors import PowdomError
from .extnum import ExtNN, INF, ONE, ZERO
from .poset import ElemSet, FinPoset, all_down_sets, all_up_sets, poset_from_cover, product_poset
from .funcspace import ExpPoset, MonoMap, compose, enumerate_monotone, precompose
from .algebra import (
    FinAlgebra,
    OpSpec,
    OpTag,
    RatAlgebra,
    Signature,
    commutes,
    endomorphisms,
    generated_subalgebra,
    is_entropic,
    is_homomorphism,
    is_relaxed_entropic,
    is_relaxed_morphism,
    lift_pointwise,
    subcommutes,
    supercommutes,
)
from .monad import (
    PredicateTransformer,
    StateTransformer,
    delta,
    functional_space,
    functor_action,
    kleisli_lift,
    p_transform,
    q_transform,
)
from .powerdomain import (
    Predicate,
    SimpleValuation,
    SubFn,
    SupFn,
    dirac,
    domination_check,
    hoare_powerdomain,
    non_integer_witness,
    smyth_powerdomain,
    sobrification,
    valuation_leq,
)

__version__ = "0.1.0"
