"""Generating graphs of finite 2-generated groups.

Builds finite groups from a small spec language, realises their generating
graphs, computes connectivity, cycle, domination, and colouring invariants
exactly with certified witnesses, and verifies the closed-form identities
that hold for nilpotent groups against independent brute-force oracles.
"""

__version__ = "0.1.0"

from .build import GroupSpec, build_group, load_cayley_file, parse_spec
from .errors import GengraphError
from .generating import (
    degree_profile,
    delta_of,
    generating_graph,
    lex_decomposition_check,
    recover_cyclic_radical,
)
from .graphs import (
    Graph,
    direct_product,
    edge_connectivity,
    eulerian_circuit,
    td_bounds,
    verify_certificate,
    vertex_connectivity,
)
from .groups import (
    Group,
    frattini,
    is_nilpotent,
    is_two_generated,
    nilpotent_structure,
    quotient_mod_frattini,
    totient_profile,
)
from .search import (
    chromatic_number,
    clique_number,
    hamiltonian,
    total_domination,
)
from .constructions import (
    h_membership,
    nilpotent_hamiltonian,
    nilpotent_td,
)
from .verify import (
    CHECK_IDS,
    QUESTION_IDS,
    CheckResult,
    Report,
    default_catalog,
    run_catalog,
    run_check,
    scan_question,
)
