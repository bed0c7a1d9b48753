"""Report serialization: CSV and JSON with stable layout.

Columns are emitted in a fixed order and the fully resolved parameter
set goes into the header, so two runs with the same seed produce
byte-identical files.
JSON is strict: a non-finite number is written as the CSV's text.
"""

import io
import json
import math

from .verifiers import VerificationReport

CSV_COLUMNS = ["quantity", "value", "value_decimal", "reference", "asserted", "ok"]


def _split_value(v):
    """(exact text, decimal text) for a report cell."""
    if v is None:
        return "", ""
    if isinstance(v, int):
        return str(v), str(v)
    if isinstance(v, float):
        return repr(v), repr(v)
    return str(v), ""


def _json_value(v):
    """A cell as strict JSON: a non-finite float as the CSV's own text."""
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


def emit_report(report: VerificationReport, fmt: str = "csv",
                params: dict | None = None) -> str:
    """Render a report to text; fmt is 'csv' or 'json'."""
    if fmt == "json":
        payload = {
            "property": report.property_name,
            "verdict": report.verdict,
            "params": {k: _json_value(v)
                       for k, v in sorted((params or {}).items())},
            "rows": [{k: _json_value(row.get(k))
                      for k in CSV_COLUMNS if k != "value_decimal"}
                     for row in report.rows],
        }
        return json.dumps(payload, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown report format: {fmt}")
    buf = io.StringIO()
    buf.write(f"# property={report.property_name} verdict={report.verdict}\n")
    for key in sorted((params or {})):
        buf.write(f"# param {key}={params[key]}\n")
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in report.rows:
        exact, dec = _split_value(row.get("value"))
        ref_exact, _ = _split_value(row.get("reference"))
        ok = row.get("ok")
        buf.write(",".join([
            str(row.get("quantity", "")), exact, dec, ref_exact,
            "yes" if row.get("asserted") else "no",
            "" if ok is None else ("yes" if ok else "no"),
        ]) + "\n")
    return buf.getvalue()

