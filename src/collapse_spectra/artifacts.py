"""The one CSV byte format of every artifact table.

A float is written as ``repr(float(x))`` (no ``np.float64(...)``
wrapper), anything else as ``csv`` writes it, and each line ends in a
bare ``"\\n"``; for a fixed config and seed the bodies are byte-identical.
"""

import csv
import io


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([repr(float(x)) if isinstance(x, float) else x for x in row]
                for row in rows)
    return buf.getvalue()
