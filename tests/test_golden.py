"""Golden artifacts: the exact engine's `verify` reports, byte for byte.

The hashes were recorded from the sympy-backed coefficient field that the
packed-exponent ring replaced. The two closure artifacts render residual
polynomials, so they pin lex term order and the canonical form of the
fractions as well as the pass/fail pattern.
"""

import hashlib

import pytest

from qpskit.cli import main

GOLDEN = {
    "poincare": (["poincare"],
                 "8f1255fbd8f987793fc0c109edbad0574ebf4273e06639360974283e5afcab41"),
    "spinless": (["spinless"],
                 "79be46a0bf316e89bf924ba8216b42fc804ecdf0e9e8fbb28de0a0e6c8177e15"),
    "bargmann": (["bargmann"],
                 "9d03449bc65121655448342b533c18af24b6758f5022e880e5ef049ebd8dc1bc"),
    "lemmas": (["lemmas"],
               "2f7e6a5cd0590559f98bcfb0417de6b40fb3455557e9103808314e91cbfbdfe8"),
    "casimirs": (["casimirs"],
                 "6c29aecae143e9cfdd787b2fb1cb7d271fea840828a4d81d551eaade4e171490"),
    "pl": (["pl"],
           "5799c0138835bb326a92412aaf46032480e0fc22e869a1c931fc48c397743dea"),
    "boost": (["boost"],
              "0ecc9b8d96dce755e2dc1f2bcc7639e1bab990e4fdfee2af89d15ee7a4c4c2bd"),
    "emrelation": (["emrelation"],
                   "bd8117c50a4425621cbac46a0fda76546aedff763208c75f8bbb615d4b11d12f"),
    "emrelation_k2": (["emrelation", "--mass-factor", "2"],
                      "a856005c485e2e479e67332473a7a0c4a59ed478f8aacdf9f183edc5f1f0479f"),
    "closure_poly": (["emrelation", "--h", "Lam*omega + 3/2*P2"],
                     "cd8b6d96f3fc837d3f4333c3ce4a4ff98b849b9971331b9f23082562cb6f8b09"),
    "closure_den": (["emrelation", "--h", "Lam*omega + m^2/(P2+m)"],
                    "2628dcf27ba4383d667b8f8ba3cb7acf7ba03d9d4147adc9e76ea91a53e573df"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verify_artifact_is_byte_identical(name, tmp_path, capsys):
    args, digest = GOLDEN[name]
    out = tmp_path / f"{name}.json"
    code = main(["verify", *args, "--out", str(out)])
    capsys.readouterr()
    assert code == (1 if name.startswith("closure") else 0)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
