"""Golden artifacts: the exact engine's `verify` reports, byte for byte.

The hashes were recorded from the sympy-backed coefficient field that the
packed-exponent ring replaced. The two closure artifacts render residual
polynomials, so they pin lex term order and the canonical form of the
fractions as well as the pass/fail pattern.

The generator-set hashes cover each generator's rendering and its terms in
insertion order. Term order sets the order of ``realize``'s plan, so they
also pin the bits of the grid residuals.
"""

import hashlib
from fractions import Fraction

import pytest

from qpskit import AlgebraContext, bargmann_generators, foldy_generators
from qpskit.cli import main
from qpskit.parser import render_expr, render_scalar

GOLDEN = {
    "poincare": (["poincare"],
                 "8f1255fbd8f987793fc0c109edbad0574ebf4273e06639360974283e5afcab41"),
    "spinless": (["spinless"],
                 "79be46a0bf316e89bf924ba8216b42fc804ecdf0e9e8fbb28de0a0e6c8177e15"),
    "bargmann": (["bargmann"],
                 "9d03449bc65121655448342b533c18af24b6758f5022e880e5ef049ebd8dc1bc"),
    "lemmas": (["lemmas"],
               "64e90ceab1adcb2b1c9ba7faefc0a9f83833621a0e51fb7ed268c54bfd5bf8c1"),
    "casimirs": (["casimirs"],
                 "6c29aecae143e9cfdd787b2fb1cb7d271fea840828a4d81d551eaade4e171490"),
    "pl": (["pl"],
           "238a5c02c613ab378cbda1d4a1ebf9f129973fe594e627971b713d6651ff5531"),
    "boost": (["boost"],
              "56be026368cd55ed0f6c9c0da4fc7887009203efe08bc001d741cd378e94ee3e"),
    "emrelation": (["emrelation"],
                   "bd8117c50a4425621cbac46a0fda76546aedff763208c75f8bbb615d4b11d12f"),
    "emrelation_k2": (["emrelation", "--mass-factor", "2"],
                      "a856005c485e2e479e67332473a7a0c4a59ed478f8aacdf9f183edc5f1f0479f"),
    "closure_poly": (["emrelation", "--h", "Lam*omega + 3/2*P2"],
                     "cd8b6d96f3fc837d3f4333c3ce4a4ff98b849b9971331b9f23082562cb6f8b09"),
    "closure_den": (["emrelation", "--h", "Lam*omega + m^2/(P2+m)"],
                    "2628dcf27ba4383d667b8f8ba3cb7acf7ba03d9d4147adc9e76ea91a53e573df"),
    # recorded with sympy's factor_list; no linear certificate covers the
    # denominator, so it is reduced through the coprime base
    "closure_base": (["emrelation", "--h", "Lam*omega + m^2/(P1^2+P2^2-3*m^2)"],
                     "040a2017035e73cbb075283a910a8028fe0c5bacabab839f90e983855dc4c6a6"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verify_artifact_is_byte_identical(name, tmp_path, capsys):
    args, digest = GOLDEN[name]
    out = tmp_path / f"{name}.json"
    code = main(["verify", *args, "--out", str(out)])
    capsys.readouterr()
    assert code == (1 if name.startswith("closure") else 0)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


GENERATOR_SETS = {
    "full": (foldy_generators,
             "1618c9baca24d4b9666da2ad4ef3dc44c082bf3eba5891060ac380e528ef79c6"),
    "spin_zero": (lambda: {k: v.substitute_spin_zero()
                           for k, v in foldy_generators().items()},
                  "88145cd29baef60fdc305be267df0c296ea3d3c056dbe0edf496105962e30d0a"),
    "k2": (lambda: foldy_generators(ctx=AlgebraContext.get(2)),
           "6b4c51f410872266083cb572eea83bf90c863283a730e49b7de3b6001288e986"),
    "k3/2": (lambda: foldy_generators(ctx=AlgebraContext.get(Fraction(3, 2))),
             "50b721b2142a849f5b18e3d441c7fba65eb08d3ea36f24ce7593d511ca576760"),
    "bargmann": (bargmann_generators,
                 "f6000151298fee3983533a9fc356479d1fc48b50dd675c18f0d74aaee2c5fcdb"),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_SETS))
def test_generator_set_is_term_for_term_identical(name):
    build, digest = GENERATOR_SETS[name]
    gens = dict(build().items())
    h = hashlib.sha256()
    for gen in sorted(gens):
        expr = gens[gen]
        h.update(f"{gen} = {render_expr(expr)}\n".encode())
        for mono, c in expr.terms.items():
            h.update(f"  {mono} {render_scalar(c)}\n".encode())
    assert h.hexdigest() == digest
