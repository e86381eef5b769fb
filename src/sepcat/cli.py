"""sepcat command line: separability checks, cohomology, and reports.

Exit codes: 0 = positive mathematical outcome, 1 = negative outcome
(violations, not separable, invalid certificate), 2 = malformed input or
usage error, 3 = internal cross-check failure or budget exceeded.

_parser builds one argparse parser from a table of the verbs on the first
call. main parses the command line (a usage error exits 2 before any verb
runs) and runs the verb, turning the errors it raises into exit codes 2
and 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .exactalg import Field
from .errors import BudgetExceededError, InternalCheckError
from .lincat import classify_presentation, linearize, validate_category
from .cmod import _kernel_comp_ses, canonical_bimodule, validate_module
from .cohomology import _vanishing_dims, _vanishing_les, build_hm_complex, cohomology_dims, les_analysis, obstruction_cocycle
from .separability import (
    _center_freedom,
    _is_separable,
    ei_predict,
    module_section,
    solve_separability,
    verify_family,
    zelinsky_report,
)
from . import interchange as io


def _fail(code: int, message: str):
    # the lines a verb printed come before its message when stdout and
    # stderr share a pipe
    sys.stdout.flush()
    print(message, file=sys.stderr)
    sys.exit(code)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} is nested too deeply") from None


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
    """Q, or Fp: followed by the prime in ASCII digits, as scalars are
    written; a sign, a space, an underscore or another script's digits
    is malformed."""
    if text == "Q":
        return Field()
    found = re.fullmatch(r"Fp:([0-9]+)", text)
    if found is None:
        raise ValueError(f"bad field spec {text!r}; expected Q or Fp:P")
    return Field(int(found.group(1)))


def _load_certificate(c, path: str):
    """The family in the certificate file at path, and its verify_family check."""
    fam = io.certificate_from_json(c, _load_json(path))
    return fam, verify_family(c, fam)


def _echo_verified(c, fam, failure: str, *lines: str):
    """Print "separable: yes", lines and the certificate of fam, and return
    the certificate document; InternalCheckError(failure) instead when fam
    does not verify on c."""
    if not verify_family(c, fam).ok:
        raise InternalCheckError(failure)
    print("separable: yes")
    for line in lines:
        print(line)
    doc = io.certificate_to_json(c, fam)
    print(json.dumps(doc, indent=2))
    return doc


def _criterion(verdict, cats, disagree: str, kind: str, reason):
    """Exit with a criterion's verdict once the solver agrees with it on
    every category in cats (disagree, formatted with the field where it
    does not, is the failure); a separable verdict's family is verified and
    printed on cats[0], else reason is printed."""
    for c in cats:
        if verdict.separable != _is_separable(c):
            raise InternalCheckError(disagree.format(c.field))
    if verdict.separable:
        _echo_verified(cats[0], verdict.family, f"{kind} certificate does not verify")
        sys.exit(0)
    print(f"separable: no  ({reason})")
    sys.exit(1)


def _echo_residuals(check) -> None:
    for x in check.unit_witnesses:
        print(f"unit residual at object {x}")
    for (f, y) in check.equivariance_witnesses:
        print(f"equivariance residual at morphism {f}, object {y}")


def _resolve_bimodule(c, spec: str):
    if spec == "canonical":
        return canonical_bimodule(c)
    if spec == "kernel-comp":
        return _kernel_comp_ses(c).m
    return _valid(c, io.bimodule_from_json(c, _load_json(spec)), f"{spec} is not a valid bimodule")


def _valid(c, m, failure: str):
    """m, or ValueError(failure: its first violations) when m is not a
    valid module."""
    report = validate_module(c, m)
    if not report.ok:
        raise ValueError(f"{failure}: " + "; ".join(report.violations[:3]))
    return m


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
        print("ok")
        sys.exit(0)
    for v in report.violations:
        print(f"violation: {v}")
    sys.exit(1)


def linearize_cmd(pres_file, field_text, out_path):
    """Linearize a finite category presentation over a field."""
    p = io.presentation_from_json(_load_json(pres_file))
    k = _parse_field(field_text)
    c = linearize(p, k)
    _dump_json(out_path, io.category_to_json(c))
    total = c.total_dim()
    print(f"objects {len(c.objects)}  total hom dimension {total}  field {k}")
    sys.exit(0)


def separability_check(file, cert_out):
    """Find a separability family, verified before it is printed: the trace
    form's Casimir element where that form is nondegenerate, "not
    separable" where Dickson's criterion applies to a degenerate one, else
    the solver's family; exit 0 separable / 1 not."""
    c = _load_category(file)
    fam = solve_separability(c)
    if fam is None:
        print("separable: no")
        sys.exit(1)
    doc = _echo_verified(c, fam, "solver output fails verification", f"solution space dimension {_center_freedom(c)}")
    if cert_out:
        _dump_json(cert_out, doc)
    sys.exit(0)


def separability_verify(file, cert_path):
    """Verify a certificate; exit 0 valid / 1 residuals reported."""
    c = _load_category(file)
    _, check = _load_certificate(c, cert_path)
    if check.ok:
        print("certificate: valid")
        sys.exit(0)
    _echo_residuals(check)
    sys.exit(1)


def maschke(pres_file, field_text):
    """EI criterion on a groupoid: separable iff every |Aut(x)| is
    invertible in the field. Cross-checked against the trace form's
    Casimir element or Dickson's criterion, and the solver where neither
    settles it."""
    p = io.presentation_from_json(_load_json(pres_file))
    k = _parse_field(field_text)
    if not classify_presentation(p).is_groupoid:
        raise ValueError("presentation is not a groupoid")
    verdict = ei_predict(p, k)
    reason = None if verdict.separable else "|hom({},{})| = {} is not invertible in {}".format(*verdict.witness, k)
    _criterion(verdict, [linearize(p, k)], "groupoid criterion disagrees with the solver", "formula", reason)


def delta(pres_file):
    """EI criterion on a delta category: separable iff discrete. Cross-checked
    over Q, F2 and F3 against the trace form's Casimir element or Dickson's
    criterion, and the solver where neither settles it."""
    p = io.presentation_from_json(_load_json(pres_file))
    if not classify_presentation(p).is_delta:
        raise ValueError("presentation is not a delta category")
    verdict = ei_predict(p, Field())
    cats = [linearize(p, k) for k in (Field(), Field(2), Field(3))]
    _criterion(verdict, cats, "delta criterion disagrees with the solver over {}", "discrete",
               "delta category with a non-identity morphism")


def cohomology(file, bimodule_spec, max_degree, json_out):
    """Cohomology dimensions of the bar complex. On a separable category
    the complex is built to degree 1 only, where H^1 = 0 is checked; above
    it H^n = 0, by the vanishing theorem."""
    c = _load_category(file)
    m = _resolve_bimodule(c, bimodule_spec)
    if _is_separable(c):
        complex = build_hm_complex(c, m, min(max_degree, 1))
        result = _vanishing_dims(complex, cohomology_dims(complex), max_degree)
    else:
        result = cohomology_dims(build_hm_complex(c, m, max_degree))
    print("degree  dim_cochain  rank_d  dim_H")
    for d in result.degrees:
        print(f"{d.n:<7} {d.dim_cochain:<12} {d.rank_d:<7} {d.dim_h}")
    if json_out:
        _dump_json(json_out, io.cohomology_report_to_json(result))
    sys.exit(0)


def obstruction(file):
    """Splitting obstruction of comp; exit 0 when it is a coboundary."""
    c = _load_category(file)
    result = obstruction_cocycle(c)
    print(f"kernel of comp: total dimension {result.kernel.total_dim()}")
    print(f"is_coboundary: {'yes' if result.is_coboundary else 'no'}")
    sys.exit(0 if result.is_coboundary else 1)


def les(file, ses_spec, max_degree, json_out):
    """Verify the long exact sequence of a short exact sequence. On a
    separable category it is walked to degree 1 only, where H^1 = 0 and
    zero connecting ranks are checked; every later position is 0, by the
    vanishing theorem."""
    c = _load_category(file)
    if ses_spec == "kernel-comp":
        ses = _kernel_comp_ses(c)
    else:
        ses = io.ses_from_json(c, _load_json(ses_spec))
        for member, mod in (("M", ses.m), ("N", ses.n), ("P", ses.p)):
            _valid(c, mod, f"member {member} of {ses_spec} is not a valid bimodule")
    if _is_separable(c):
        report = _vanishing_les(les_analysis(c, ses, min(max_degree, 1)), max_degree)
    else:
        report = les_analysis(c, ses, max_degree)
    print("position  incoming_rank  kernel_dim  exact")
    for rec in report.positions:
        print(f"{rec.position:<9} {rec.incoming_rank:<14} {rec.kernel_dim:<11} {'yes' if rec.exact else 'NO'}")
    print("connecting ranks: " + " ".join(str(r) for r in report.connecting_ranks))
    if json_out:
        _dump_json(json_out, io.les_report_to_json(report))
    if not report.all_exact:
        raise InternalCheckError("long exact sequence is not exact")
    sys.exit(0)


def module_split(file, module_path, cert_path):
    """Build the splitting section of a left module from a certificate."""
    c = _load_category(file)
    m = _valid(c, io.left_module_from_json(c, _load_json(module_path)), "module file is invalid")
    fam, check = _load_certificate(c, cert_path)
    if not check.ok:
        print("certificate: invalid")
        _echo_residuals(check)
        sys.exit(1)
    result = module_section(c, fam, m)
    print(f"section_ok: {'yes' if result.section_ok else 'no'}")
    print(f"linear_ok: {'yes' if result.linear_ok else 'no'}")
    if not (result.section_ok and result.linear_ok):
        raise InternalCheckError("verified certificate produced a bad section")
    sys.exit(0)


def zelinsky(file, cert_path):
    """Locally-finite embedding report from a certificate."""
    c = _load_category(file)
    fam, check = _load_certificate(c, cert_path)
    if not check.ok:
        print("certificate: invalid")
        sys.exit(1)
    report = zelinsky_report(c, fam)
    print("x  z  dim_hom  bound  injective")
    for rec in report.pairs:
        print(f"{rec.x}  {rec.z}  {rec.hom_dim:<8} {rec.bound:<6} {'yes' if rec.injective else 'NO'}")
    if not report.all_injective:
        raise InternalCheckError("a verified certificate gave a non-injective embedding")
    sys.exit(0)


def _input_path(text: str) -> str:
    if not os.path.isfile(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not an existing file")
    return text


def _output_path(text: str) -> str:
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    return text


def _arg(*flags, **options):
    """One argument of a verb, as argparse's add_argument takes it."""
    return flags, options


_FILE = _arg("file", metavar="FILE", type=_input_path)
_PRES = _arg("pres_file", metavar="PRES", type=_input_path)
_FIELD = _arg("--field", dest="field_text", required=True, help="Q or Fp:P")
_CERTIFICATE = _arg("--certificate", dest="cert_path", required=True, type=_input_path)
_MAX_DEGREE = _arg("--max-degree", type=int, default=2, help="(default: %(default)s)")
_JSON_OUT = _arg("--json-out", type=_output_path)

_GROUPS = {"separability": "Decide separability or verify a certificate", "module": "Left module operations"}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every verb, built on the first call. A verb named by
    two words, such as "separability check", sits under a parser for the
    first word."""
    parser = argparse.ArgumentParser(prog="sepcat", description=main.__doc__, allow_abbrev=False)
    verbs = {"": parser.add_subparsers(metavar="VERB", required=True)}
    for words, fn, *arguments in [
        ("validate", validate, _FILE, _arg("--category", dest="category_path", type=_input_path,
                                           help="Category file, required when FILE is a module file.")),
        ("linearize", linearize_cmd, _PRES, _FIELD, _arg("-o", dest="out_path", required=True, type=_output_path)),
        ("separability check", separability_check, _FILE, _arg("--certificate-out", dest="cert_out", type=_output_path)),
        ("separability verify", separability_verify, _FILE, _CERTIFICATE),
        ("maschke", maschke, _PRES, _FIELD),
        ("delta", delta, _PRES),
        ("cohomology", cohomology, _FILE, _arg("--bimodule", dest="bimodule_spec", required=True,
                                               help="Path to a bimodule file, or canonical, or kernel-comp."),
         _MAX_DEGREE, _JSON_OUT),
        ("obstruction", obstruction, _FILE),
        ("les", les, _FILE, _arg("--ses", dest="ses_spec", required=True,
                                 help="Path to a short-exact-sequence file, or kernel-comp."), _MAX_DEGREE, _JSON_OUT),
        ("module split", module_split, _FILE, _arg("--module", dest="module_path", required=True, type=_input_path),
         _CERTIFICATE),
        ("zelinsky", zelinsky, _FILE, _CERTIFICATE),
    ]:
        group, _, name = words.rpartition(" ")
        if group not in verbs:
            sub = verbs[""].add_parser(group, help=_GROUPS[group], description=_GROUPS[group], allow_abbrev=False)
            verbs[group] = sub.add_subparsers(metavar="VERB", required=True)
        sub = verbs[group].add_parser(name, help=fn.__doc__.partition(".")[0], description=fn.__doc__,
                                      allow_abbrev=False)
        for flags, options in arguments:
            sub.add_argument(*flags, **options)
        sub.set_defaults(run=fn)
    return parser


def main(args=None, prog_name=None):
    """Exact separability and Hochschild-Mitchell cohomology of finite
    K-linear categories."""
    options = vars(_parser().parse_args(args))
    run = options.pop("run")
    try:
        run(**options)
    except BudgetExceededError as exc:
        _fail(3, f"budget exceeded: {exc}")
    except InternalCheckError as exc:
        _fail(3, f"internal cross-check failure: {exc}")
    except (ValueError, KeyError, TypeError, json.JSONDecodeError, OSError) as exc:
        _fail(2, f"malformed input: {exc}")


# the benchmark harness (bench/workloads.py) calls the CLI as
# main.main(args=..., prog_name="sepcat"); prog_name is not read, since
# usage lines always name sepcat
main.main = main


if __name__ == "__main__":
    main()
