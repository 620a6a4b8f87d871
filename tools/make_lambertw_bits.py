#!/usr/bin/env python3
"""Pin the bits of ``lambert_w0`` at 15, 30 and 60 digits.

Writes tests/fixtures/lambertw_bits.json: the raw ``_mpf_`` tuples of the
real and imaginary parts of W(z) for a fixed list of points covering every
algorithm region of ``gsinv.lambertw``.  A speed change to Lambert W must
reproduce these bits exactly; regenerate the file only for an intended
change of the values.  Run from the repository root:

    PYTHONPATH=src python3 tools/make_lambertw_bits.py
"""
import json
import pathlib

from gsinv import PrecisionContext, lambert_w0

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "lambertw_bits.json"
DIGITS = (15, 30, 60)
MINUS_INV_E = "-0.3678794411714423215955237701614608674458111310317678345078368016974615"

# (region, re, im); each string is parsed at the working precision
POINTS = [
    ("taylor", "0.01", "0"),
    ("taylor", "0.03", "0.05"),
    ("taylor", "-0.05", "0.02"),
    ("taylor", "-0.07", "0"),
    ("taylor", "1e-6", "-2e-6"),
    ("branch", MINUS_INV_E, "0"),
    ("branch", "-0.3678794411714423215955237701614608674458", "0.001"),
    ("branch", "-0.3668794411714423215955237701614608674458111310317678345078368", "0"),
    ("branch", "-0.3688794411714423215955237701614608674458111310317678345078368", "0"),
    ("branch", "-0.3658794411714423215955237701614608674458111310317678345078368", "0.002"),
    ("branch", "-0.3678794411714423215955237701614608674458111310317678345078368", "-0.01"),
    ("near-branch", "-0.3310914970542980894359713931453147807012", "0"),
    ("near-branch", "-0.3480028301368010275326434510271023976165",
     "0.03095598756531121984439128249151294316713"),
    ("near-branch", "-0.3973518677299898021613038183119179901389",
     "0.02201655979296384147155492870701407937301"),
    ("near-branch", "-0.2575156088200096251168666391130226072121", "0"),
    ("near-branch", "-0.308249608067518439406882812758385457958",
     "-0.09286796269593365953317384747453882950139"),
    ("near-branch", "-0.456296720847084763292863914612832235525", "0"),
    ("near-branch", "-0.4", "0"),
    ("disk", "0.5", "0.5"),
    ("disk", "1.1", "0"),
    ("disk", "-0.2", "0.9"),
    ("disk", "0.8", "-0.3"),
    ("disk", "0.1", "0"),
    ("log", "5", "3"),
    ("log", "100", "0"),
    ("log", "-8", "0.5"),
    ("log", "1e6", "1e6"),
    ("log", "1e-3", "1.3"),
    ("omega", "1.21", "0"),
    ("omega", "1.205", "0.05"),
    ("omega", "1.2001", "-0.05"),
    ("cut", "-0.5", "0"),
    ("cut", "-1", "0"),
    ("cut", "-2", "0"),
    ("cut", "-3", "0"),
    ("cut", "-50", "0"),
    ("cut", "-39.7", "0"),
    ("lower", "2", "-5"),
    ("lower", "-1", "-1e-30"),
    ("lower", "-7.5", "-0.25"),
]


def bits(x):
    sign, man, exp, bc = x._mpf_
    return [sign, hex(man), exp, bc]


def main():
    doc = {"points": [list(p) for p in POINTS], "bits": {}}
    for digits in DIGITS:
        ctx = PrecisionContext(digits)
        ws = [lambert_w0(ctx.mpc(re, im), ctx) for _, re, im in POINTS]
        doc["bits"][str(digits)] = [[bits(w.real), bits(w.imag)] for w in ws]

    # one point per line, so a changed value shows as a one-line diff
    def rows(items, indent):
        return ",\n".join(indent + json.dumps(item) for item in items)

    by_digits = ",\n".join(f'  "{d}": [\n{rows(doc["bits"][d], "   ")}\n  ]'
                            for d in doc["bits"])
    OUT.write_text(f'{{\n "points": [\n{rows(doc["points"], "  ")}\n ],\n'
                   f' "bits": {{\n{by_digits}\n }}\n}}\n')


if __name__ == "__main__":
    main()
