"""Every settable value of the package, listed: a new knob fails here until
it is added to OPTIONS, so adding one is a visible decision. An underscore
keyword of a public function is a knob too, only a private one, and is
listed with the rest."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fracspike"

# module.function(parameter=) for each defaulted parameter of a public
# function or method, module.Class.field for each defaulted field
OPTIONS = """
_krylov.minres(x0=)
_krylov.minres(rtol=)
_krylov.minres(maxiter=)
_krylov.minres(reduce=)
_krylov.minres(r0=)
ansatz.SpikeConfig.delta
ansatz.SpikeConfig.r_min
ansatz.AnsatzBundle.V_grid
ansatz.build_ansatz(mu=)
cache.cached_ground_state(directory=)
cli.main(argv=)
correction.CorrectionOptions.eta
correction.CorrectionResult.contraction_history
correction.projected_solve(x0=)
correction.projected_solve(_op=)
correction.projected_solve(_reduce=)
correction.projected_solve(_image=)
correction.nonlinear_correction(opts=)
correction.nonlinear_correction(phi0=)
correction.nonlinear_correction(_steps=)
correction.nonlinear_correction(_c_tol=)
ground_state.GroundState.source
ground_state.solve_ground_state(lam=)
ground_state.linearization_spectrum(kernel_tol=)
potentials.Potential.parameters
reduced.SearchOutcome.history
reduced.SearchOutcome.boundary_stuck
reduced.SearchOutcome.I_value
reduced.SearchOutcome.c_tol
reduced.SearchOutcome.correction
reduced.SearchOutcome.stop
reduced.reduced_energy(phi0=)
scenarios.Scenario.resolved
scenarios.parse_scenario(origin=)
scenarios.run_scenario(out_dir=)
scenarios.run_scenario(cache_dir=)
scenarios.run_scenario(workers=)
spectral.spectral_derivative(axis=)
spectral.czt(axis=)
spectral.FarFieldFit.contaminated
spectral.FarFieldFit.coefficients
spectral.FarFieldFit.exponents
""".split()


def _public(name):
    return not name.startswith("_") or name == "__init__"


def _defaulted(fn):
    a = fn.args
    positional = a.posonlyargs + a.args
    named = positional[len(positional) - len(a.defaults):] + [
        p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return [p.arg for p in named]


def scan_options(package=PACKAGE):
    """The defaulted parameters of public functions and methods, and the
    defaulted fields of public classes, in module and source order."""
    found = []
    for path in sorted(package.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                found += [f"{mod}.{node.name}({p}=)" for p in _defaulted(node)]
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                for item in node.body:
                    where = f"{mod}.{node.name}"
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        found += [f"{where}.{item.name}({p}=)"
                                  for p in _defaulted(item)]
                    elif (isinstance(item, ast.AnnAssign)
                          and item.value is not None
                          and _public(item.target.id)):
                        found.append(f"{where}.{item.target.id}")
    return found


def test_settable_values_are_the_listed_ones():
    assert scan_options() == OPTIONS


def test_scan_sees_a_new_keyword(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(a, b=1, *, c=None, _d=2):\n    pass\n"
        "class K:\n    x: int = 0\n    y: int\n"
        "    def m(self, z=3):\n        pass\n", encoding="utf-8")
    assert scan_options(tmp_path) == ["mod.f(b=)", "mod.f(c=)", "mod.f(_d=)",
                                      "mod.K.x", "mod.K.m(z=)"]
