"""Bit-exact JSON encodings and the CSV emitters.

Exact scalars serialize through exponent/rational string lists, so a
round trip reproduces the object structurally; floats go through repr
and round-trip exactly as well.  CSV rows are written in the order they
are given, each cell formatted by csv.writer (a float as its repr), so
identical configurations write byte-identical files.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction

from .qarith import QScalar, QRadical, _int
from .algebra import AlgebraElement, NormalMonomial
from .fourier import FourierArray

__all__ = [
    "scalar_to_json", "scalar_from_json",
    "element_to_json", "element_from_json",
    "fourier_array_to_json", "fourier_array_from_json",
    "pw_entry_to_json", "pw_entry_from_json",
    "dump_json", "load_json", "write_csv",
]


def _lp_to_json(terms):
    return [[e, str(c)] for e, c in sorted(terms.items())]


def _lp_from_json(data):
    return {int(e): _int(Fraction(c)) for e, c in data}


def scalar_to_json(x):
    if isinstance(x, QScalar):
        return {"type": "qscalar", "num": _lp_to_json(x.num),
                "den": _lp_to_json(x.den)}
    if isinstance(x, QRadical):
        terms = sorted(((scalar_to_json(r), scalar_to_json(c))
                        for r, c in x.terms.items()),
                       key=lambda t: json.dumps(t[0], sort_keys=True))
        return {"type": "qradical", "terms": [list(t) for t in terms]}
    if isinstance(x, (int, Fraction)):
        return {"type": "rational", "value": str(Fraction(x))}
    if isinstance(x, float):
        return {"type": "float", "value": repr(x)}
    raise TypeError(f"cannot serialize scalar {type(x).__name__}")


def scalar_from_json(data):
    kind = data["type"]
    if kind == "qscalar":
        return QScalar(_lp_from_json(data["num"]), _lp_from_json(data["den"]))
    if kind == "qradical":
        return QRadical({scalar_from_json(r): scalar_from_json(c)
                         for r, c in data["terms"]})
    if kind == "rational":
        return QScalar.promote(Fraction(data["value"]))
    if kind == "float":
        return float(data["value"])
    raise ValueError(f"unknown scalar tag {kind!r}")


def element_to_json(elem):
    terms = []
    for mono in sorted(elem.terms, key=lambda m: (m.degree(), str(m))):
        terms.append({"head": mono.head, "head_pow": mono.head_pow,
                      "b_pow": mono.b_pow, "c_pow": mono.c_pow,
                      "coeff": scalar_to_json(elem.terms[mono])})
    return {"terms": terms}


def element_from_json(data):
    terms = {}
    for t in data["terms"]:
        mono = NormalMonomial(t["head"], t["head_pow"], t["b_pow"], t["c_pow"])
        terms[mono] = scalar_from_json(t["coeff"])
    return AlgebraElement(terms)


def fourier_array_to_json(arr):
    spins = []
    for tl in sorted(arr.coeffs):
        entries = [[tm, tn, scalar_to_json(v)]
                   for (tm, tn), v in sorted(arr.coeffs[tl].items())]
        spins.append({"twice_l": tl, "entries": entries})
    return {"spins": spins}


def fourier_array_from_json(data):
    out = {}
    for block in data["spins"]:
        out[block["twice_l"]] = {
            (tm, tn): scalar_from_json(v) for tm, tn, v in block["entries"]}
    return FourierArray(out)


def pw_entry_to_json(pw, twice_l):
    """One coefficient-table entry: matrix of elements plus normalizers."""
    entries = [[tm, tn, element_to_json(elem)]
               for (tm, tn), elem in sorted(pw.entries(twice_l).items())]
    norms = [[tm, scalar_to_json(v)]
             for tm, v in sorted(pw.norm_sq(twice_l).items())]
    return {"twice_l": twice_l, "entries": entries, "norm_sq": norms}


def pw_entry_from_json(data):
    return {
        "twice_l": data["twice_l"],
        "entries": {(tm, tn): element_from_json(e)
                    for tm, tn, e in data["entries"]},
        "norm_sq": {tm: scalar_from_json(v) for tm, v in data["norm_sq"]},
    }


def dump_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_csv(path, fieldnames, rows):
    """Deterministic CSV: fixed column order, a missing key an empty cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        writer.writerows([row.get(k) for k in fieldnames] for row in rows)
