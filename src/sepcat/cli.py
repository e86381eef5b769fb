"""sepcat command line: separability checks, cohomology, and reports.

Exit codes: 0 = positive mathematical outcome, 1 = negative outcome
(violations, not separable, invalid certificate), 2 = malformed input,
3 = internal cross-check failure or budget exceeded.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from .exactalg import Field
from .errors import BudgetExceededError, InternalCheckError
from .lincat import linearize, validate_category
from .cmod import canonical_bimodule, kernel_of, tensor_square, validate_module, ShortExactSeq
from .cohomology import build_hm_complex, cohomology_dims, les_analysis, obstruction_cocycle
from .separability import (
    _solve_with_freedom,
    delta_predict,
    maschke_predict,
    module_section,
    solve_separability,
    verify_family,
    zelinsky_report,
)
from . import interchange as io


def _fail(code: int, message: str):
    click.echo(message, err=True)
    sys.exit(code)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BudgetExceededError as exc:
            _fail(3, f"budget exceeded: {exc}")
        except InternalCheckError as exc:
            _fail(3, f"internal cross-check failure: {exc}")
        except (ValueError, KeyError, TypeError, json.JSONDecodeError, OSError) as exc:
            _fail(2, f"malformed input: {exc}")

    return wrapper


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _dump_json(path: str, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _load_category(path: str):
    c = io.category_from_json(_load_json(path))
    report = validate_category(c)
    if not report.ok:
        raise ValueError(f"{path} is not a valid category: " + "; ".join(report.violations[:3]))
    return c


def _parse_field(text: str) -> Field:
    if text == "Q":
        return Field()
    if text.startswith("Fp:"):
        return Field(int(text.split(":", 1)[1]))
    raise ValueError(f"bad field spec {text!r}; expected Q or Fp:P")


def _load_certificate(c, path: str):
    return io.certificate_from_json(c, _load_json(path))


def _echo_residuals(check) -> None:
    for x in check.unit_witnesses:
        click.echo(f"unit residual at object {x}")
    for (f, y) in check.equivariance_witnesses:
        click.echo(f"equivariance residual at morphism {f}, object {y}")


def _resolve_bimodule(c, spec: str):
    if spec == "canonical":
        return canonical_bimodule(c)
    if spec == "kernel-comp":
        _, comp_map = tensor_square(c)
        ker, _ = kernel_of(comp_map)
        return ker
    return _valid_bimodule(c, io.bimodule_from_json(c, _load_json(spec)), spec)


def _valid_bimodule(c, m, what: str):
    """m, or ValueError naming what when m is not a valid bimodule."""
    report = validate_module(c, m)
    if not report.ok:
        raise ValueError(f"{what} is not a valid bimodule: " + "; ".join(report.violations[:3]))
    return m


@click.group()
def main():
    """Exact separability and Hochschild-Mitchell cohomology of finite
    K-linear categories."""


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--category", "category_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Category file, required when FILE is a module file.")
@_guarded
def validate(file, category_path):
    """Validate a category or module file; exit 0 ok / 1 violations."""
    doc = _load_json(file)
    if not isinstance(doc, dict):
        raise ValueError(f"{file} is not a JSON object")
    if "objects" in doc:
        c = io.category_from_json(doc)
        report = validate_category(c)
    else:
        if category_path is None:
            raise ValueError("module files need --category")
        c = _load_category(category_path)
        # a bimodule file has an action on either side or spaces at pairs (x, y)
        spaces = doc.get("spaces")
        pairs = isinstance(spaces, list) and any(isinstance(e, dict) and "y" in e for e in spaces)
        if pairs or "left_action" in doc or "right_action" in doc:
            mod = io.bimodule_from_json(c, doc)
        else:
            mod = io.left_module_from_json(c, doc)
        report = validate_module(c, mod)
    if report.ok:
        click.echo("ok")
        sys.exit(0)
    for v in report.violations:
        click.echo(f"violation: {v}")
    sys.exit(1)


@main.command()
@click.argument("pres_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--field", "field_text", required=True, help="Q or Fp:P")
@click.option("-o", "out_path", required=True, type=click.Path(dir_okay=False))
@_guarded
def linearize_cmd(pres_file, field_text, out_path):
    """Linearize a finite category presentation over a field."""
    p = io.presentation_from_json(_load_json(pres_file))
    k = _parse_field(field_text)
    c = linearize(p, k)
    _dump_json(out_path, io.category_to_json(c))
    total = c.total_dim()
    click.echo(f"objects {len(c.objects)}  total hom dimension {total}  field {k}")
    sys.exit(0)


main.add_command(linearize_cmd, name="linearize")


@main.group()
def separability():
    """Decide separability or verify a certificate."""


@separability.command("check")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--certificate-out", "cert_out", type=click.Path(dir_okay=False), default=None)
@_guarded
def separability_check(file, cert_out):
    """Solve for a separability family; exit 0 separable / 1 not."""
    c = _load_category(file)
    fam, freedom = _solve_with_freedom(c)
    if fam is None:
        click.echo("separable: no")
        sys.exit(1)
    check = verify_family(c, fam)
    if not check.ok:
        raise InternalCheckError("solver output fails verification")
    click.echo("separable: yes")
    click.echo(f"solution space dimension {freedom}")
    doc = io.certificate_to_json(c, fam)
    click.echo(json.dumps(doc, indent=2))
    if cert_out:
        _dump_json(cert_out, doc)
    sys.exit(0)


@separability.command("verify")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--certificate", "cert_path", required=True, type=click.Path(exists=True, dir_okay=False))
@_guarded
def separability_verify(file, cert_path):
    """Verify a certificate; exit 0 valid / 1 residuals reported."""
    c = _load_category(file)
    fam = _load_certificate(c, cert_path)
    check = verify_family(c, fam)
    if check.ok:
        click.echo("certificate: valid")
        sys.exit(0)
    _echo_residuals(check)
    sys.exit(1)


@main.command()
@click.argument("pres_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--field", "field_text", required=True, help="Q or Fp:P")
@_guarded
def maschke(pres_file, field_text):
    """Groupoid criterion, cross-checked against the solver."""
    p = io.presentation_from_json(_load_json(pres_file))
    k = _parse_field(field_text)
    verdict = maschke_predict(p, k)
    c = linearize(p, k)
    solved = solve_separability(c)
    if verdict.separable != (solved is not None):
        raise InternalCheckError("groupoid criterion disagrees with the solver")
    if verdict.separable:
        check = verify_family(c, verdict.family)
        if not check.ok:
            raise InternalCheckError("formula certificate does not verify")
        click.echo("separable: yes")
        click.echo(json.dumps(io.certificate_to_json(c, verdict.family), indent=2))
        sys.exit(0)
    x, y, n = verdict.witness
    click.echo(f"separable: no  (|hom({x},{y})| = {n} is not invertible in {k})")
    sys.exit(1)


@main.command()
@click.argument("pres_file", type=click.Path(exists=True, dir_okay=False))
@_guarded
def delta(pres_file):
    """Delta-category criterion, cross-checked against the solver."""
    p = io.presentation_from_json(_load_json(pres_file))
    verdict = delta_predict(p)
    cats = {k: linearize(p, k) for k in (Field(), Field(2), Field(3))}
    for k, c in cats.items():
        if verdict.separable != (solve_separability(c) is not None):
            raise InternalCheckError(f"delta criterion disagrees with the solver over {k}")
    if verdict.separable:
        c = cats[Field()]
        check = verify_family(c, verdict.family)
        if not check.ok:
            raise InternalCheckError("discrete certificate does not verify")
        click.echo("separable: yes")
        click.echo(json.dumps(io.certificate_to_json(c, verdict.family), indent=2))
        sys.exit(0)
    click.echo("separable: no  (delta category with a non-identity morphism)")
    sys.exit(1)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--bimodule", "bimodule_spec", required=True,
              help="Path to a bimodule file, or canonical, or kernel-comp.")
@click.option("--max-degree", default=2, show_default=True)
@click.option("--json-out", "json_out", type=click.Path(dir_okay=False), default=None)
@_guarded
def cohomology(file, bimodule_spec, max_degree, json_out):
    """Cohomology dimensions of the bar complex."""
    c = _load_category(file)
    m = _resolve_bimodule(c, bimodule_spec)
    complex = build_hm_complex(c, m, max_degree)
    result = cohomology_dims(complex)
    click.echo("degree  dim_cochain  rank_d  dim_H")
    for d in result.degrees:
        click.echo(f"{d.n:<7} {d.dim_cochain:<12} {d.rank_d:<7} {d.dim_h}")
    if json_out:
        _dump_json(json_out, io.cohomology_report_to_json(result))
    sys.exit(0)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@_guarded
def obstruction(file):
    """Splitting obstruction of comp; exit 0 when it is a coboundary."""
    c = _load_category(file)
    result = obstruction_cocycle(c)
    click.echo(f"kernel of comp: total dimension {result.kernel.total_dim()}")
    click.echo(f"is_coboundary: {'yes' if result.is_coboundary else 'no'}")
    sys.exit(0 if result.is_coboundary else 1)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--ses", "ses_spec", required=True,
              help="Path to a short-exact-sequence file, or kernel-comp.")
@click.option("--max-degree", default=2, show_default=True)
@click.option("--json-out", "json_out", type=click.Path(dir_okay=False), default=None)
@_guarded
def les(file, ses_spec, max_degree, json_out):
    """Verify the long exact sequence of a short exact sequence."""
    c = _load_category(file)
    if ses_spec == "kernel-comp":
        cxc, comp_map = tensor_square(c)
        ker, incl = kernel_of(comp_map)
        ses = ShortExactSeq(ker, cxc, comp_map.target, incl, comp_map)
    else:
        ses = io.ses_from_json(c, _load_json(ses_spec))
        for member, mod in (("M", ses.m), ("N", ses.n), ("P", ses.p)):
            _valid_bimodule(c, mod, f"member {member} of {ses_spec}")
    report = les_analysis(c, ses, max_degree)
    click.echo("position  incoming_rank  kernel_dim  exact")
    for rec in report.positions:
        click.echo(f"{rec.position:<9} {rec.incoming_rank:<14} {rec.kernel_dim:<11} {'yes' if rec.exact else 'NO'}")
    click.echo("connecting ranks: " + " ".join(str(r) for r in report.connecting_ranks))
    if json_out:
        _dump_json(json_out, io.les_report_to_json(report))
    if not report.all_exact:
        raise InternalCheckError("long exact sequence is not exact")
    sys.exit(0)


@main.group()
def module():
    """Left module operations."""


@module.command("split")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--module", "module_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--certificate", "cert_path", required=True, type=click.Path(exists=True, dir_okay=False))
@_guarded
def module_split(file, module_path, cert_path):
    """Build the splitting section of a left module from a certificate."""
    c = _load_category(file)
    m = io.left_module_from_json(c, _load_json(module_path))
    mod_report = validate_module(c, m)
    if not mod_report.ok:
        raise ValueError("module file is invalid: " + "; ".join(mod_report.violations[:3]))
    fam = _load_certificate(c, cert_path)
    check = verify_family(c, fam)
    if not check.ok:
        click.echo("certificate: invalid")
        _echo_residuals(check)
        sys.exit(1)
    result = module_section(c, fam, m)
    click.echo(f"section_ok: {'yes' if result.section_ok else 'no'}")
    click.echo(f"linear_ok: {'yes' if result.linear_ok else 'no'}")
    if not (result.section_ok and result.linear_ok):
        raise InternalCheckError("verified certificate produced a bad section")
    sys.exit(0)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--certificate", "cert_path", required=True, type=click.Path(exists=True, dir_okay=False))
@_guarded
def zelinsky(file, cert_path):
    """Locally-finite embedding report from a certificate."""
    c = _load_category(file)
    fam = _load_certificate(c, cert_path)
    check = verify_family(c, fam)
    if not check.ok:
        click.echo("certificate: invalid")
        sys.exit(1)
    report = zelinsky_report(c, fam)
    click.echo("x  z  dim_hom  bound  injective")
    for rec in report.pairs:
        click.echo(f"{rec.x}  {rec.z}  {rec.hom_dim:<8} {rec.bound:<6} {'yes' if rec.injective else 'NO'}")
    if not report.all_injective:
        raise InternalCheckError("a verified certificate gave a non-injective embedding")
    sys.exit(0)


if __name__ == "__main__":
    main()
