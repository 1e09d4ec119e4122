"""What importing ringcodes loads, checked in a fresh interpreter.

    PYTHONPATH=src python tests/lazy_import_check.py FILE

FILE holds the Z6 worked system of the tests (the PCS_TEXT of
test_cli.py).  `import ringcodes` alone loads no submodule.  Importing
formats and pcs, then parsing, validating and converting the system, loads
neither numpy nor dataclasses nor the distance, reach, fourier, enumerator
and oracle modules, and neither does `ringcodes validate` through cli.main.
The kernel, the linearity test and one system-side Fourier coefficient
then still load neither numpy nor dataclasses.  The distance distribution,
run before any search, loads none of the distance, reach and oracle
modules.  `ringcodes mindist` and `ringcodes decode`, whose reach tables
are Python ints, load neither numpy nor dataclasses, nor do
`ringcodes enumerator`, `ringcodes fourier --all` and
`ringcodes to-code --oracle`, whose span walks (the row span of H, the
kernel) pack each point into one Python int.  Needs only the standard
library, so it also runs on interpreters without numpy.  Prints the JSON
of `ringcodes validate`.
"""

import io
import sys
from contextlib import redirect_stdout

if len(sys.argv) != 2:
    print("usage: PYTHONPATH=src python tests/lazy_import_check.py FILE", file=sys.stderr)
    sys.exit(2)

import ringcodes

assert not [m for m in sys.modules if m.startswith("ringcodes.")], "a submodule was imported"

from ringcodes import formats, pcs  # noqa: E402

UNUSED = {
    "dataclasses", "numpy",
    "ringcodes.distance", "ringcodes.reach", "ringcodes.fourier", "ringcodes.enumerator",
    "ringcodes.oracle",
}

path = sys.argv[1]
with open(path) as f:
    pf = formats.parse_problem(f.read())
system = pcs.validate_pcs(pf.h_rows, pf.s_rows)
pres = pcs.pcs_to_code(system)
assert pres.cardinality == 216
assert not UNUSED & set(sys.modules), f"loaded {sorted(UNUSED & set(sys.modules))}"

from ringcodes import cli  # noqa: E402

assert cli.main(["validate", path, "--json"]) == 0
assert not UNUSED & set(sys.modules), f"validate loaded {sorted(UNUSED & set(sys.modules))}"
assert ringcodes.code_to_pcs(pres).s == 3
assert ringcodes.kernel(system).cardinality and not ringcodes.is_linear(system)
assert ringcodes.fourier_coeff_pcs(system, system.h_rows[0]).terms
assert not {"dataclasses", "numpy"} & set(sys.modules), "numpy or dataclasses was imported"
assert ringcodes.distance_distribution(system).coeffs == (216, 0, 6480, 17280, 22680)
SEARCH = {"ringcodes.distance", "ringcodes.reach", "ringcodes.oracle"}
assert not SEARCH & set(sys.modules), f"the enumerator loaded {sorted(SEARCH & set(sys.modules))}"
with redirect_stdout(io.StringIO()) as out:
    assert cli.main(["mindist", path, "--json"]) == 0
    assert cli.main(["decode", path, "1,3,1,3", "--json"]) == 0
assert out.getvalue() == (
    '{"min_distance":2,"witness":[1,4,0,0],"witness_syndrome":[5,4]}\n'
    '{"radius":0,"status":"beyond_radius"}\n'
), out.getvalue()
assert "ringcodes.reach" in sys.modules, "mindist did not take the table route"
assert not {"dataclasses", "numpy"} & set(sys.modules), "mindist or decode imported numpy"
with redirect_stdout(io.StringIO()):
    assert cli.main(["enumerator", path, "--json"]) == 0
    assert cli.main(["fourier", path, "--all", "--json"]) == 0
    assert cli.main(["to-code", path, "--oracle", "--json"]) == 0
assert "ringcodes.enumerator" in sys.modules and "ringcodes.oracle" in sys.modules
assert not {"dataclasses", "numpy"} & set(sys.modules), "a span walk imported numpy"
