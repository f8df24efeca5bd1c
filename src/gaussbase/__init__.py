"""Numeration systems for the Gaussian integers in a complex base.

Exact Z[i] arithmetic, canonical digit sets and base-b words, a DFA engine
over digit alphabets with falsification harnesses, and decision/witness
procedures around multiplicative dependence.
"""

from .automata import (
    Dfa,
    LanguageOracle,
    ResidualReport,
    complement,
    dfa_from_json,
    dfa_oracle_disagreement,
    dfa_to_json,
    equivalent,
    integers_dfa,
    integers_oracle,
    is_empty,
    minimize,
    powers_dfa,
    powers_oracle,
    product,
    residual_signatures,
    run,
    word_of,
    zero_pump_probe,
)
from .dependence import (
    DependenceVerdict,
    GroupWitness,
    PrefixWitness,
    group_witness,
    mult_dependent,
    prefix_extension,
)
from .gaussint import (
    BudgetExceeded,
    DivisionByZero,
    GaussInt,
    InvalidInput,
    NonTermination,
    NotDivisible,
    divides,
    exact_div,
    is_power_of,
)
from .numeration import (
    DigitSet,
    LengthBound,
    LinkCertificate,
    Word,
    canonical_digit_set,
    check_linked,
    decode,
    digit_of,
    encode,
    length_bound,
    max_length_in_disc,
    power_digit_set,
    real_power_exponent,
    recode,
    terminates_on_disc,
    word_length,
)

__version__ = "0.1.0"
