"""smolab: desk-scale experiments on characters, prime densities, and
Euler-product pole diagnostics."""

from .characters import (CharacterTable, Verdict, agreement_fraction,
                         character_table, distinguishing_threshold,
                         extremal_search, inner_product, lemma_check)
from .density import (DensityEstimate, dirichlet_density_estimate,
                      frobenius_statistics, natural_density_estimate, prime_zeta)
from .euler import (EulerProduct, GRCBoundProfile, LocalFactor, convergence_probe,
                    eval_local, first_pole_line, grc_profile,
                    key_observation_abscissa, landau_region_check, log_expansion,
                    positive_type_check, rankin_selberg_local,
                    rs_leading_coefficient, zeta_product)
from .experiments import (compare_local, inert_experiment, pole_order_estimate,
                          rajan_criterion, tempered_bound_check,
                          tower_degree_check, z_ratio)
from .fields import FieldSpec, parse_fieldspec
from .groups import FiniteGroup, build_group, bundled_catalog, catalog, direct_product
from .hecke import (RepresentationData, load_hecke, synthetic_tempered,
                    synthetic_with_profile)
from .selectors import (AllPrimes, CongruenceSelector, DegreeSelector,
                        ExplicitList, PrimeSelector, parse_selector)
from .sieve import prime_array, prime_count
from .tau import generate_tau, tau_csv_text

__version__ = "0.1.0"
