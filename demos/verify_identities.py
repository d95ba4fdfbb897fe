"""Run every geometric identity check on one surface and print the residuals.

Each line is an independent consequence of the construction: if any one of
them drifted, something upstream (integration, factorization or the
reconstruction formula) would be broken. The checks are the rows of
psfront.analysis.CHECKS, the table the `psfront verify` subcommand reads.
"""

import numpy as np

import psfront as pf

x = np.linspace(-2.0, 2.0, 129)
spec = pf.preset_by_name("pseudosphere")
up = pf.integrate_half_frame(spec, "x", x, n_trunc=16)
um = pf.integrate_half_frame(spec, "y", x, n_trunc=16)
field = pf.build_frame_field(up, um)
conn = pf.extract_connection(field)
omega = conn.omega
S = pf.sym_immersion(field, 1.0, conn=conn)
forms = pf.fundamental_forms(S)
zcc = float(pf.zcc_residual(conn).max())

# one line per row of the table psfront verify checks
for name, tol, residual in pf.analysis.CHECKS:
    value = residual(S, forms, omega, zcc)
    print(f"{name:<25} {value:.2e}   tolerance {tol:g}")
print(f"regular nodes             {forms.regular_count}")

nsc = pf.normal_sign_comparison(S, omega)
print(f"orientation:  cross-product normal agrees: {nsc['agree']}"
      f" (deviation {nsc['max_deviation']:.2e})")
