"""Report serialization: CSV and JSON with stable layout.

Columns are emitted in a fixed order and the fully resolved parameter
set goes into the header, so two runs with the same seed produce
byte-identical files.
JSON is strict: a non-finite number is written as the CSV's text.
"""

import io
import json
import math

CSV_COLUMNS = ["quantity", "value", "value_decimal", "reference", "asserted", "ok"]


def _cell(v) -> str:
    """A report value (None, an int or a float) as CSV text; the same
    text fills the value and value_decimal columns."""
    return "" if v is None else repr(v)


def _json_value(v):
    """A cell as strict JSON: a non-finite float as the CSV's own text."""
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


def emit_report(report, fmt: str = "csv",
                params: dict | None = None) -> str:
    """Render a report, a `verifiers.VerificationReport` or anything with
    its property_name, verdict and rows, to text; fmt is 'csv' or
    'json'."""
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
        value = _cell(row.get("value"))
        ok = row.get("ok")
        buf.write(",".join([
            str(row.get("quantity", "")), value, value,
            _cell(row.get("reference")),
            "yes" if row.get("asserted") else "no",
            "" if ok is None else ("yes" if ok else "no"),
        ]) + "\n")
    return buf.getvalue()

