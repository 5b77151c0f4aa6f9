"""The DN operator of a coefficient pair's system form, for the tests
that do not reuse the form's parts."""

from fractomo.assembly import conductivity_form, potential_form
from fractomo.dnmap import DNOperator


def system_operator(mesh, params, coeffs):
    """``DNOperator`` of ``conductivity_form + potential_form`` of ``coeffs``."""
    return DNOperator(mesh, params, coeffs,
                      form=conductivity_form(mesh, params, coeffs)
                      + potential_form(mesh, coeffs.q))
